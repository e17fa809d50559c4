package experiments

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/wire"
)

// corruptOnce damages the payload of the first data frame it sees, keeping
// the checksums valid so that only the record layer can tell, and lets
// every later frame through.
func corruptOnce() netsim.FaultConfig {
	done := false
	return netsim.FaultConfig{CorruptProb: 1, Corrupter: func(rng *rand.Rand, f wire.Frame) bool {
		if done {
			return false
		}
		done = wire.CorruptPayload(rng, f)
		return done
	}}
}

// TestStorageTLSRecordErrorIsCounted: on the NVMe-over-TLS storage link
// both ends decrypt in software, and one record that fails its check kills
// the TLS connection. The association beneath reports it instead of
// panicking: a corrupt read response fails the host's reads and counts one
// failed connection; a corrupt command stops the target, which says so
// through its OnError.
func TestStorageTLSRecordErrorIsCounted(t *testing.T) {
	t.Run("response", func(t *testing.T) {
		w := NewStorageWorld(StorageOpts{OverTLS: true})
		w.Back.SetFaultsBtoA(corruptOnce())
		r := RunFio(w, 16<<10, 4, time.Millisecond)
		if r.connsFailed != 1 || r.failed == 0 || len(r.violations) != 0 {
			t.Errorf("%d failed connections, %d failed reads, violations %v; want 1, some, none",
				r.connsFailed, r.failed, r.violations)
		}
		if st := w.SrvTLS.Stats; st.AuthFailures != 1 {
			t.Errorf("host TLS counted %d authentication failures, want 1", st.AuthFailures)
		}
	})
	t.Run("command", func(t *testing.T) {
		w := NewStorageWorld(StorageOpts{OverTLS: true})
		var errs []error
		w.Ctrl.OnError = func(err error) { errs = append(errs, err) }
		w.Back.SetFaultsAtoB(corruptOnce())
		r := RunFio(w, 16<<10, 4, time.Millisecond)
		if len(errs) != 1 || len(r.violations) != 0 {
			t.Errorf("target reported %v, violations %v; want one error, none", errs, r.violations)
		}
	})
}
