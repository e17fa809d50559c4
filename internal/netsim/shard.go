package netsim

// Compile-compat for the frozen benchmark/ package (the only caller), which
// still times the deleted goroutine fan-out; jobs run inline.
//
// Deprecated: remove with the benchmark's shard rows (ROADMAP.md).
func (s *Simulator) ShardRun(n int, job func(shard int)) {
	for i := 0; i < n; i++ {
		job(i)
	}
}

// Deprecated: remove with the benchmark's shard rows. Always 1.
func (s *Simulator) ShardWorkers() int { return 1 }

// Deprecated: remove with the benchmark's shard rows. No-op.
func (s *Simulator) SetShardWorkers(int) {}
