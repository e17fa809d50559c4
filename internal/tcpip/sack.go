package tcpip

import "repro/internal/wire"

// scoreboard is the sender-side SACK scoreboard (RFC 2018 / RFC 6675,
// simplified): the set of sequence ranges the receiver has reported holding
// above the cumulative ACK.
//
// Invariants (checked by FuzzScoreboard):
//   - ranges are sorted by start and pairwise disjoint (adjacent ranges
//     are merged);
//   - every range lies strictly above the last advance()d cumulative ACK;
//   - nextHole never returns bytes inside a SACKed range, so hole-directed
//     retransmission can never resend data the receiver already has.
type scoreboard struct {
	ranges []wire.SACKBlock
}

// add merges the SACKed range [start, end) into the scoreboard and reports
// whether it contained bytes not already recorded.
func (sb *scoreboard) add(start, end uint32) bool {
	if !seqLT(start, end) {
		return false
	}
	// Find the insertion point: first range whose end reaches start.
	i := 0
	for i < len(sb.ranges) && seqLT(sb.ranges[i].End, start) {
		i++
	}
	if i == len(sb.ranges) {
		sb.ranges = append(sb.ranges, wire.SACKBlock{Start: start, End: end})
		return true
	}
	r := &sb.ranges[i]
	if seqLT(end, r.Start) {
		// Strictly before range i: insert.
		sb.ranges = append(sb.ranges, wire.SACKBlock{})
		copy(sb.ranges[i+1:], sb.ranges[i:])
		sb.ranges[i] = wire.SACKBlock{Start: start, End: end}
		return true
	}
	// Overlaps or abuts range i (and possibly later ones): merge.
	grew := seqLT(start, r.Start) || seqLT(r.End, end)
	if seqLT(start, r.Start) {
		r.Start = start
	}
	if seqLT(r.End, end) {
		r.End = end
	}
	// Absorb any later ranges the grown range now reaches.
	j := i + 1
	for j < len(sb.ranges) && !seqLT(r.End, sb.ranges[j].Start) {
		if seqLT(r.End, sb.ranges[j].End) {
			r.End = sb.ranges[j].End
		}
		j++
	}
	if j > i+1 {
		sb.ranges = append(sb.ranges[:i+1], sb.ranges[j:]...)
		grew = true
	}
	return grew
}

// advance drops everything at or below the cumulative ACK una.
func (sb *scoreboard) advance(una uint32) {
	out := sb.ranges[:0]
	for _, r := range sb.ranges {
		if seqLE(r.End, una) {
			continue
		}
		if seqLT(r.Start, una) {
			r.Start = una
		}
		out = append(out, r)
	}
	sb.ranges = out
}

// sackedBytes returns the total bytes currently SACKed.
func (sb *scoreboard) sackedBytes() int {
	n := 0
	for _, r := range sb.ranges {
		n += seqSub(r.End, r.Start)
	}
	return n
}

// top returns the highest SACKed sequence (the exclusive end of the last
// range). Holes only exist below it.
func (sb *scoreboard) top() (uint32, bool) {
	if len(sb.ranges) == 0 {
		return 0, false
	}
	return sb.ranges[len(sb.ranges)-1].End, true
}

// nextHole returns the first un-SACKed range at or after from and below
// limit. ok is false when no such hole exists.
func (sb *scoreboard) nextHole(from, limit uint32) (start, end uint32, ok bool) {
	if !seqLT(from, limit) {
		return 0, 0, false
	}
	for _, r := range sb.ranges {
		if seqLE(r.End, from) {
			continue
		}
		if seqLE(r.Start, from) {
			// from sits inside a SACKed range: skip past it.
			from = r.End
			if !seqLT(from, limit) {
				return 0, 0, false
			}
			continue
		}
		end = r.Start
		if seqLT(limit, end) {
			end = limit
		}
		return from, end, true
	}
	return from, limit, true
}

// seqSub returns a-b as a signed sequence distance.
func seqSub(a, b uint32) int { return int(int32(a - b)) }
