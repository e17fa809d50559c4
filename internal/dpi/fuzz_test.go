package dpi

import (
	"bytes"
	"cmp"
	"slices"
	"testing"
)

// FuzzAutomaton holds the Aho–Corasick matcher to a naive bytes.Index
// sweep. The fuzz input spells 1–8 patterns of 1–16 bytes (a length byte,
// then the pattern), the data, and the cuts that split the data into
// packets. Scan must report exactly the naive matches, position-major then
// by pattern id; Step fed the cut pieces, with its state carried across
// them, must report the same matches at the same absolute offsets — the
// resume-anywhere property the NIC's per-flow context relies on.
func FuzzAutomaton(f *testing.F) {
	f.Add([]byte("\x01he\x02she\x02his\x03hers"), []byte("ushers"), []byte{2, 1})
	f.Add([]byte("\x03abab\x01ba\x02abc"), []byte("abababcbaabab"), []byte{3, 0, 5})
	f.Add([]byte("\x00a\x01aa\x02aaa\x01aa"), bytes.Repeat([]byte("a"), 9), []byte{1, 1, 1})
	f.Add([]byte("\x0f\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\xff"),
		[]byte("\xff\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\xff"), []byte{7})

	f.Fuzz(func(t *testing.T, spec, data, cuts []byte) {
		var patterns [][]byte
		for len(spec) > 1 && len(patterns) < 8 {
			n := min(1+int(spec[0]%16), len(spec)-1)
			patterns = append(patterns, spec[1:1+n])
			spec = spec[1+n:]
		}
		if len(patterns) == 0 {
			return
		}
		if len(data) > 4096 {
			data = data[:4096]
		}

		var want []Match
		for id, p := range patterns {
			for from := 0; ; {
				i := bytes.Index(data[from:], p)
				if i < 0 {
					break
				}
				want = append(want, Match{Pattern: id, End: from + i + len(p) - 1})
				from += i + 1
			}
		}
		slices.SortFunc(want, func(a, b Match) int {
			return cmp.Or(cmp.Compare(a.End, b.End), cmp.Compare(a.Pattern, b.Pattern))
		})

		a := NewAutomaton(patterns)
		if got := a.Scan(data); !slices.Equal(got, want) {
			t.Fatalf("patterns %q over %q: Scan = %v, want %v", patterns, data, got, want)
		}

		var got []Match
		var st State
		off := 0
		for _, c := range cuts {
			n := int(c) % (len(data) - off + 1)
			st = a.Step(st, data[off:off+n], off, &got)
			off += n
		}
		a.Step(st, data[off:], off, &got)
		if !slices.Equal(got, want) {
			t.Fatalf("patterns %q over %q cut by %v: Step = %v, want %v", patterns, data, cuts, got, want)
		}
	})
}
