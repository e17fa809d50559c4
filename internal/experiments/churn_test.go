package experiments

import (
	"reflect"
	"testing"
	"time"
)

// churnCfg is the small configuration the tests share: enough churn to
// pressure an 8-flow cache without the full sweep's cost.
func churnCfg() ChurnConfig {
	return ChurnConfig{
		Queues:     4,
		CacheFlows: 8,
		Concurrent: 32,
		Window:     800 * time.Microsecond,
		LossProb:   0.01,
		Seed:       7,
	}
}

func TestChurnDeterministic(t *testing.T) {
	a := RunChurn(churnCfg())
	b := RunChurn(churnCfg())
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different runs:\n a=%+v\n b=%+v", a, b)
	}
	if a.Conns < 50 {
		t.Errorf("only %d connections churned; workload too weak to mean anything", a.Conns)
	}
	requireClean(t, "churn", a.verdict, 0)
}

func TestChurnLeaksNothing(t *testing.T) {
	r := RunChurn(churnCfg())
	if r.Leaked != 0 {
		t.Errorf("churn leaked %d NIC state entries (cache/engines/harvest)", r.Leaked)
	}
	requireClean(t, "churn under plain loss", r.verdict, 0)
}

func TestChurnSpreadsAcrossQueues(t *testing.T) {
	r := RunChurn(churnCfg())
	requireClean(t, "churn", r.verdict, 0)
	if len(r.QueueRxPackets) != 4 {
		t.Fatalf("queue stats for %d queues, want 4", len(r.QueueRxPackets))
	}
	busy := 0
	for _, n := range r.QueueRxPackets {
		if n > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Errorf("RSS spread %v: churned flows used %d queue(s)", r.QueueRxPackets, busy)
	}
}

func TestChurnCachePressureKnee(t *testing.T) {
	// A cache smaller than the live-flow population must hit less and
	// move more context DMA than one comfortably larger (the Fig. 19
	// knee); the fallback rate is loss-driven and should not explode.
	small, big := churnCfg(), churnCfg()
	small.CacheFlows, big.CacheFlows = 8, 256
	rs, rb := RunChurn(small), RunChurn(big)
	if rs.HitRate >= rb.HitRate {
		t.Errorf("hit rate: cache=8 %.3f ≥ cache=256 %.3f; no pressure knee",
			rs.HitRate, rb.HitRate)
	}
	if rs.CtxDMABytes <= rb.CtxDMABytes {
		t.Errorf("ctx DMA: cache=8 %d ≤ cache=256 %d; thrash not charged",
			rs.CtxDMABytes, rb.CtxDMABytes)
	}
	for _, r := range []*ChurnResult{rs, rb} {
		requireClean(t, "churn", r.verdict, 0)
		if r.Records == 0 || r.FallbackRate > 0.5 {
			t.Errorf("records=%d fallback=%.2f: churn broke offloading outright",
				r.Records, r.FallbackRate)
		}
	}
}

// TestChurnQueueCountInvariant pins the determinism rule of DESIGN.md:
// queue count changes steering and accounting, never packet-visible
// behavior — the same seed must move the same connections and bytes.
func TestChurnQueueCountInvariant(t *testing.T) {
	one, four := churnCfg(), churnCfg()
	one.Queues, four.Queues = 1, 4
	ra, rb := RunChurn(one), RunChurn(four)
	requireClean(t, "churn, one queue", ra.verdict, 0)
	requireClean(t, "churn, four queues", rb.verdict, 0)
	if ra.Conns != rb.Conns || ra.Bytes != rb.Bytes || ra.Records != rb.Records {
		t.Errorf("queue count changed traffic: 1q conns=%d bytes=%d recs=%d, 4q conns=%d bytes=%d recs=%d",
			ra.Conns, ra.Bytes, ra.Records, rb.Conns, rb.Bytes, rb.Records)
	}
}
