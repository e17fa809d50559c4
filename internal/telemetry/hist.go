package telemetry

import (
	"fmt"
	"io"
	"math/bits"
)

// histSubBuckets is the linear resolution within each power of two
// (HdrHistogram's sub-bucket scheme with 6 significant bits: values are
// bucketed with <1.6% relative error across the whole int64 range).
const histSubBuckets = 64

// Histogram is an HDR-style log-linear histogram: exact up to 63, then 64
// linear sub-buckets per power of two. Values are unit-agnostic int64s;
// by convention the metric name carries the unit (…_ns, …_bytes).
// Negative values clamp to zero. Not safe for concurrent use (the
// simulation is single-threaded).
type Histogram struct {
	name   string
	counts []uint64
	count  uint64
	sum    int64
	min    int64
	max    int64
}

// NewHistogram creates an empty histogram; its name must be dotted
// lowercase, [a-z0-9._]. Most callers obtain one from Registry.Histogram
// instead, which also exports it in snapshots.
func NewHistogram(name string) *Histogram {
	checkName(name)
	return &Histogram{name: name}
}

// Name returns the metric name ("" when disabled).
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// Record adds one observation. Nil-safe: instrumented code can hold a nil
// *Histogram when telemetry is disabled.
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	idx := histBucket(uint64(v))
	if idx >= len(h.counts) {
		grown := make([]uint64, idx+1)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[idx]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// histBucket maps a value to its bucket index, monotonically.
func histBucket(v uint64) int {
	if v < histSubBuckets {
		return int(v)
	}
	e := bits.Len64(v) - 7 // shift so the leading bits land in [64,128)
	return e*histSubBuckets + int(v>>uint(e))
}

// histBucketUpper is the largest value mapping to bucket idx.
func histBucketUpper(idx int) int64 {
	if idx < histSubBuckets {
		return int64(idx)
	}
	e := idx/histSubBuckets - 1
	sub := idx - e*histSubBuckets
	return int64(sub+1)<<uint(e) - 1
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of all recorded values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Mean returns the average recorded value (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min returns the smallest recorded value (0 when empty).
func (h *Histogram) Min() int64 {
	if h == nil {
		return 0
	}
	return h.min
}

// Max returns the largest recorded value (0 when empty).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Quantile returns an upper bound for the q-quantile (q in [0,1]) with
// the histogram's bucket resolution. Empty histograms return 0.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := uint64(q*float64(h.count) + 0.5)
	if target < 1 {
		target = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= target {
			u := histBucketUpper(i)
			if u > h.max {
				u = h.max
			}
			return u
		}
	}
	return h.max
}

// HistSnap is one histogram's exported summary.
type HistSnap struct {
	Name          string
	Count         uint64
	Mean          float64
	Min, P50, P90 int64
	P99, Max      int64
}

// Snap summarizes the histogram (zero value when disabled).
func (h *Histogram) Snap() HistSnap {
	if h == nil {
		return HistSnap{}
	}
	return HistSnap{
		Name:  h.name,
		Count: h.count,
		Mean:  h.Mean(),
		Min:   h.Min(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}

// Fprint writes the summary as one aligned text line.
func (s HistSnap) Fprint(w io.Writer) {
	fmt.Fprintf(w, "%s count=%d mean=%.1f min=%d p50=%d p90=%d p99=%d max=%d\n",
		s.Name, s.Count, s.Mean, s.Min, s.P50, s.P90, s.P99, s.Max)
}
