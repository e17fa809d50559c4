package appsim_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/appsim"
	"repro/internal/cycles"
	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/wire"
)

// run serves objects of size bytes in format f between the generator and
// the server machine for dur, over 8 connections cycling through 4 ids,
// and fails the test unless every response arrived intact and neither
// end counted an error.
func run(t *testing.T, sim *netsim.Simulator, gen, srv *experiments.Machine, f *appsim.Format,
	mode appsim.Mode, store appsim.Store, size int, dur time.Duration) (*appsim.Server, *appsim.Client) {
	t.Helper()
	cliTLS, srvTLS := experiments.TLSKeys(0)
	s := appsim.NewServer(srv.Stack, appsim.ServerConfig{Format: f, Mode: mode, TLSCfg: srvTLS,
		Store: store, ValueSize: size, Dev: srv.NIC})
	c := appsim.NewClient(gen.Stack, appsim.ClientConfig{Format: f, TLS: mode.TLS(), TLSCfg: cliTLS,
		Server: srv.Stack.IP(), Connections: 8, FileSize: size, Objects: 4})
	sim.RunFor(dur)
	if c.Stats.Responses == 0 || s.Stats.Requests == 0 || c.Stats.VerifyFails != 0 ||
		c.Stats.Errors != 0 || s.Stats.Errors != 0 {
		t.Fatalf("client %+v, server %+v", c.Stats, s.Stats)
	}
	return s, c
}

// serveCase is one row of the (format × mode × store) table that
// TestC2AllModes, TestC1NVMeBacked, TestC1CombinedModes and TestGetRoundTrip
// each run a part of.
type serveCase struct {
	f     *appsim.Format
	mode  appsim.Mode
	store string // "cache" (C2), "nvme" (C1, software) or "nvme-offload" (placement and CRC on the NIC)
}

// serve runs each case and checks where the bytes' cycles went.
func serve(t *testing.T, cases ...serveCase) {
	for _, tc := range cases {
		t.Run(tc.f.String()+"_"+tc.mode.String()+"_"+tc.store, func(t *testing.T) {
			var srv *experiments.Machine
			var c *appsim.Client
			if tc.store == "cache" {
				w := experiments.NewPairWorld(netsim.LinkConfig{Gbps: 100, Latency: 2 * time.Microsecond}, nic.Config{})
				_, c = run(t, w.Sim, w.Gen, w.Srv, tc.f, tc.mode, appsim.PageCacheStore{}, 64<<10, 10*time.Millisecond)
				srv = w.Srv
			} else {
				off := tc.store == "nvme-offload"
				w := experiments.NewStorageWorld(experiments.StorageOpts{NVMePlace: off, NVMeCRC: off, TargetTxOffload: true})
				_, c = run(t, w.Sim, w.Gen, w.Srv, tc.f, tc.mode, &appsim.NVMeStore{Host: w.Host}, 64<<10, 10*time.Millisecond)
				srv = w.Srv
				st := w.Host.Stats
				if off && (st.BytesPlaced == 0 || st.BytesCopied != 0) || !off && st.BytesCopied == 0 {
					t.Errorf("NVMe-TCP host placed %d bytes and copied %d", st.BytesPlaced, st.BytesCopied)
				}
			}
			if c.Stats.Bytes < 512<<10 {
				t.Errorf("only %d bytes in 10 ms", c.Stats.Bytes)
			}
			// Only software TLS encrypts on the host, and only the offload
			// without zero copy or a software NVMe-TCP host copies in L5P code.
			enc := srv.Ledger.HostOpCycles(cycles.Encrypt)
			copied := srv.Ledger.Get(cycles.HostL5P, cycles.Copy).Cycles
			if (enc > 0) != (tc.mode == appsim.ModeTLS) {
				t.Errorf("host encrypt cycles %v", enc)
			}
			if (copied > 0) != (tc.mode == appsim.ModeTLSOffload || tc.store == "nvme") {
				t.Errorf("host L5P copy cycles %v", copied)
			}
		})
	}
}

// TestC2AllModes serves HTTP from the page cache in all four modes.
func TestC2AllModes(t *testing.T) {
	serve(t,
		serveCase{appsim.HTTP, appsim.ModePlain, "cache"},
		serveCase{appsim.HTTP, appsim.ModeTLS, "cache"},
		serveCase{appsim.HTTP, appsim.ModeTLSOffload, "cache"},
		serveCase{appsim.HTTP, appsim.ModeTLSOffloadZC, "cache"})
}

// TestC1NVMeBacked serves HTTP over the NVMe-TCP store, software and
// offloaded.
func TestC1NVMeBacked(t *testing.T) {
	serve(t,
		serveCase{appsim.HTTP, appsim.ModePlain, "nvme"},
		serveCase{appsim.HTTP, appsim.ModePlain, "nvme-offload"})
}

// TestC1CombinedModes serves HTTP with TLS offload and zero copy over the
// offloaded NVMe-TCP store.
func TestC1CombinedModes(t *testing.T) {
	serve(t, serveCase{appsim.HTTP, appsim.ModeTLSOffloadZC, "nvme-offload"})
}

// TestGetRoundTrip serves RESP over the NVMe-TCP store, software and
// offloaded, and (to show the format and the mode are independent) over
// TLS offload with zero copy from the page cache.
func TestGetRoundTrip(t *testing.T) {
	serve(t,
		serveCase{appsim.RESP, appsim.ModePlain, "nvme"},
		serveCase{appsim.RESP, appsim.ModePlain, "nvme-offload"},
		serveCase{appsim.RESP, appsim.ModeTLSOffloadZC, "cache"})
}

// TestFileContentConsistency: in both formats, content at an offset
// matches the same bytes of a read from 0, across a block boundary.
func TestFileContentConsistency(t *testing.T) {
	for _, f := range []*appsim.Format{appsim.HTTP, appsim.RESP} {
		whole := make([]byte, 10000)
		f.Content(3, 0, whole)
		part := make([]byte, 500)
		f.Content(3, 4096-100, part)
		if string(part) != string(whole[4096-100:4096+400]) {
			t.Errorf("%v: content at an offset differs from the whole object's", f)
		}
	}
}

// TestValueContentDeterministic: in both formats, content is a
// deterministic function of the id, and files and values do not share an
// extent.
func TestValueContentDeterministic(t *testing.T) {
	for _, f := range []*appsim.Format{appsim.HTTP, appsim.RESP} {
		a, b := make([]byte, 5000), make([]byte, 5000)
		f.Content(7, 0, a)
		f.Content(7, 0, b)
		if string(a) != string(b) {
			t.Errorf("%v: content is not deterministic", f)
		}
		f.Content(8, 0, b)
		if string(a) == string(b) {
			t.Errorf("%v: different ids yielded identical content", f)
		}
	}
	h, r := make([]byte, 64), make([]byte, 64)
	appsim.HTTP.Content(0, 0, h)
	appsim.RESP.Content(0, 0, r)
	if string(h) == string(r) {
		t.Error("a file and a value share an extent")
	}
}

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

// TestTLSRecordErrorIsCounted: both ends of a TLS connection decrypt in
// software here, and a record that fails its check kills its connection
// (TLS cannot resynchronize past it). The side that received it counts an
// error instead of panicking — the client for a corrupt response, the
// server for a corrupt request — and the other connection goes on.
func TestTLSRecordErrorIsCounted(t *testing.T) {
	for _, toClient := range []bool{true, false} {
		link := netsim.LinkConfig{Gbps: 100, Latency: 2 * time.Microsecond}
		if toClient {
			link.BtoA = corruptOnce()
		} else {
			link.AtoB = corruptOnce()
		}
		w := experiments.NewPairWorld(link, nic.Config{})
		cliTLS, srvTLS := experiments.TLSKeys(0)
		s := appsim.NewServer(w.Srv.Stack, appsim.ServerConfig{Format: appsim.HTTP, Mode: appsim.ModeTLS,
			TLSCfg: srvTLS, Store: appsim.PageCacheStore{}})
		c := appsim.NewClient(w.Gen.Stack, appsim.ClientConfig{Format: appsim.HTTP, TLS: true, TLSCfg: cliTLS,
			Server: w.Srv.Stack.IP(), Connections: 2, FileSize: 16 << 10, Objects: 4})
		w.Sim.RunFor(5 * time.Millisecond)
		want := [2]uint64{0, 1} // client, server errors
		if toClient {
			want = [2]uint64{1, 0}
		}
		if got := [2]uint64{c.Stats.Errors, s.Stats.Errors}; got != want || c.Stats.VerifyFails != 0 {
			t.Errorf("corrupt record to the client=%v: client/server errors %v, want %v; %d verify failures",
				toClient, got, want, c.Stats.VerifyFails)
		}
		if c.Stats.Responses == 0 {
			t.Errorf("corrupt record to the client=%v: the other connection served nothing", toClient)
		}
	}
}
