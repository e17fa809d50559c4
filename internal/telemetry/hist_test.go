package telemetry

import "testing"

func TestHistBucketMonotonic(t *testing.T) {
	prev := -1
	for v := uint64(0); v < 1<<14; v++ {
		b := histBucket(v)
		if b < prev {
			t.Fatalf("histBucket not monotonic at v=%d: %d < %d", v, b, prev)
		}
		prev = b
	}
}

func TestHistBucketBounds(t *testing.T) {
	// Every value must be <= the upper bound of its bucket, and the upper
	// bound must map back into the same bucket.
	for _, v := range []uint64{0, 1, 63, 64, 65, 127, 128, 129, 255, 256, 1000, 1 << 20, 1<<40 + 12345} {
		b := histBucket(v)
		u := histBucketUpper(b)
		if int64(v) > u {
			t.Errorf("v=%d bucket=%d upper=%d: value above bucket upper bound", v, b, u)
		}
		if histBucket(uint64(u)) != b {
			t.Errorf("upper bound %d of bucket %d maps to bucket %d", u, b, histBucket(uint64(u)))
		}
	}
}

func TestHistogramExactSmallValues(t *testing.T) {
	h := NewHistogram("t")
	for i := int64(0); i < 64; i++ {
		h.Record(i)
	}
	if got := h.Quantile(0.5); got != 31 && got != 32 {
		t.Errorf("p50 of 0..63 = %d, want 31 or 32", got)
	}
	if h.Min() != 0 || h.Max() != 63 {
		t.Errorf("min/max = %d/%d, want 0/63", h.Min(), h.Max())
	}
	if h.Count() != 64 || h.Sum() != 63*64/2 {
		t.Errorf("count/sum = %d/%d", h.Count(), h.Sum())
	}
}

func TestHistogramQuantileError(t *testing.T) {
	// Log-linear bucketing with 64 sub-buckets keeps relative error under
	// 1/64 for any value.
	h := NewHistogram("t")
	const v = 123457
	h.Record(v)
	q := h.Quantile(0.99)
	if q < v || float64(q-v) > float64(v)/64 {
		t.Errorf("quantile %d strays too far from recorded %d", q, v)
	}
}

func TestHistogramNegativeClamps(t *testing.T) {
	h := NewHistogram("t")
	h.Record(-5)
	if h.Min() != 0 || h.Max() != 0 || h.Count() != 1 {
		t.Errorf("negative record: min=%d max=%d count=%d", h.Min(), h.Max(), h.Count())
	}
}

func TestHistogramNilSafe(t *testing.T) { requireNilSafe(t, (*Histogram)(nil)) }

func TestHistogramRecordNoAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting unreliable under -race")
	}
	h := NewHistogram("t")
	h.Record(1 << 30) // pre-grow the counts slice
	allocs := testing.AllocsPerRun(1000, func() { h.Record(12345) })
	if allocs != 0 {
		t.Errorf("Record allocates %v per op in steady state, want 0", allocs)
	}
}
