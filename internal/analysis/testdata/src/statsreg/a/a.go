// Package a models a subsystem exporting counter structs; statsreg
// checks that each one reaches the registry.
package a

import (
	"time"

	"statsreg/telemetry"
)

// GoodStats is registered below.
type GoodStats struct {
	Hits     uint64
	Nested   InnerStats
	Recovery RecoveryStats
}

// InnerStats reaches the registry as a nested field of GoodStats.
type InnerStats struct {
	Misses uint64
}

// RecoveryStats models the loss-recovery counter block: several sibling
// uint64 counters all reaching the registry through one registered parent.
type RecoveryStats struct {
	SACKBlocksRcvd uint64
	HolesRetx      uint64
	SpuriousRTOs   uint64
}

// OrphanStats is well-shaped but nothing ever registers it.
type OrphanStats struct { // want `OrphanStats is never registered with the telemetry registry`
	Hits uint64
}

// BadStats is registered. Its fields' shape is telemetry's to reject at
// registration, not this analyzer's.
type BadStats struct {
	Hits    uint64
	Elapsed time.Duration
	hidden  uint64
}

// MergedStats reaches the registry through a telemetry.Sum merge.
type MergedStats struct {
	Hits uint64
}

// Summary is exported but does not end in Stats: out of scope.
type Summary struct {
	Elapsed time.Duration
}

func register(reg *telemetry.Registry, g *GoodStats, b *BadStats) {
	reg.RegisterCounters("good", g)
	reg.RegisterCounters("bad", b)
}

func merge(dst *MergedStats, src MergedStats) {
	telemetry.Sum(dst, src)
}

// PtrMergedStats reaches the registry through the allocation-free
// telemetry.SumInto merge (the cached-Stats() pattern).
type PtrMergedStats struct {
	Hits uint64
}

func mergePtr(dst, src *PtrMergedStats) {
	telemetry.SumInto(dst, src)
}

// QueueStats models the multi-queue NIC pattern: a per-queue counter block
// registered in a loop (one RegisterCounters call per queue) and merged
// into a device view with telemetry.Sum. Both witnesses are type-based, so
// loop registration must satisfy the analyzer with no diagnostic.
type QueueStats struct {
	RxPackets uint64
	TxPackets uint64
}

type queue struct {
	Stats QueueStats
}

func registerQueues(reg *telemetry.Registry, queues []*queue) {
	for i, q := range queues {
		reg.RegisterCounters("nic.q"+string(rune('0'+i)), &q.Stats)
	}
}

func mergeQueues(queues []*queue) QueueStats {
	var s QueueStats
	for _, q := range queues {
		telemetry.Sum(&s, q.Stats)
	}
	return s
}
