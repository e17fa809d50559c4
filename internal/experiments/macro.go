package experiments

import (
	"fmt"
	"time"

	"repro/internal/appsim"
)

var fileSizes = []int{4 << 10, 16 << 10, 64 << 10, 256 << 10}

// Fig12 reproduces the C1 nginx experiment: http over an NVMe-TCP-backed
// filesystem, baseline vs. the NVMe-TCP receive offload. Throughput is
// bounded by the remote drive (≈21.4 Gbps).
func Fig12() []*Table {
	t := &Table{
		ID:    "fig12",
		Title: "Nginx + NVMe-TCP offload (C1, http): Gbps and busy cores",
		Columns: []string{"file", "base 1c", "off 1c", "Δ1c",
			"base 8c", "off 8c", "base cores", "off cores", "Δcores"},
	}
	for _, size := range fileSizes {
		row := []string{sizeLabel(size)}
		var oneCore, eightCore, busy [2]float64
		for i, offload := range []bool{false, true} {
			w := NewStorageWorld(StorageOpts{
				NVMePlace:       offload,
				NVMeCRC:         offload,
				TargetTxOffload: true,
			})
			res := RunHTTPC1(w, appsim.ModePlain, 32, size, 4*time.Millisecond)
			oneCore[i] = oneCoreGbps(&w.Model, res.Srv, res.Bytes, res.Elapsed, w.Model.DriveGbps())
			eightCore[i] = nCoreGbps(&w.Model, res.Srv, res.Bytes, 8, w.Model.DriveGbps())
			busy[i] = w.Model.BusyCores(res.Srv, res.Bytes, eightCore[i])
		}
		row = append(row,
			f1(oneCore[0]), f1(oneCore[1]), pct(oneCore[1]/oneCore[0]-1),
			f1(eightCore[0]), f1(eightCore[1]),
			f2(busy[0]), f2(busy[1]), pct(busy[1]/busy[0]-1))
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper: 1-core gains 4%–44% with file size; at the drive's max rate, up to 27% fewer busy cores")
	return []*Table{t}
}

// Fig13 reproduces the C2 nginx experiment: all files in the page cache,
// four TLS variants, bounded by the 100 Gbps NIC.
func Fig13() []*Table {
	t := &Table{
		ID:      "fig13",
		Title:   "Nginx TLS variants (C2, page cache): Gbps and busy cores",
		Columns: []string{"file", "variant", "1-core Gbps", "8-core Gbps", "busy cores"},
	}
	modes := []appsim.Mode{appsim.ModeTLS, appsim.ModeTLSOffload,
		appsim.ModeTLSOffloadZC, appsim.ModePlain}
	for _, size := range fileSizes {
		for _, mode := range modes {
			w := cleanPair()
			res := RunHTTPC2(w, mode, 32, size, 1500*time.Microsecond)
			one := oneCoreGbps(&w.Model, res.Srv, res.Bytes, res.Elapsed)
			eight := nCoreGbps(&w.Model, res.Srv, res.Bytes, 8)
			busy := w.Model.BusyCores(res.Srv, res.Bytes, eight)
			t.Rows = append(t.Rows, []string{
				sizeLabel(size), mode.String(), f1(one), f1(eight), f2(busy),
			})
		}
	}
	t.Notes = append(t.Notes,
		"paper (256KiB): offload+zc delivers 2.7x https throughput at 1 core and 88% more at 8 cores")
	return []*Table{t}
}

// Fig14 reproduces the combined NVMe-TLS nginx experiment (C1): the
// storage link runs NVMe-TCP over TLS; the baseline is all-software, the
// offload composes TLS decrypt with NVMe copy+CRC on the NIC (§5.3) plus
// the front-side TLS offload.
func Fig14() []*Table {
	t := &Table{
		ID:    "fig14",
		Title: "Nginx + combined NVMe-TLS offload (C1, https)",
		Columns: []string{"file", "base 1c", "off 1c", "Δ1c",
			"base 8c", "off 8c", "base cores", "off cores", "Δcores"},
	}
	for _, size := range fileSizes {
		var oneCore, eightCore, busy [2]float64
		for i, offload := range []bool{false, true} {
			w := NewStorageWorld(StorageOpts{
				OverTLS:           true,
				StorageTLSOffload: offload,
				NVMePlace:         offload,
				NVMeCRC:           offload,
			})
			mode := appsim.ModeTLS
			if offload {
				mode = appsim.ModeTLSOffloadZC
			}
			res := RunHTTPC1(w, mode, 32, size, 4*time.Millisecond)
			oneCore[i] = oneCoreGbps(&w.Model, res.Srv, res.Bytes, res.Elapsed, w.Model.DriveGbps())
			eightCore[i] = nCoreGbps(&w.Model, res.Srv, res.Bytes, 8, w.Model.DriveGbps())
			busy[i] = w.Model.BusyCores(res.Srv, res.Bytes, eightCore[i])
		}
		t.Rows = append(t.Rows, []string{
			sizeLabel(size),
			f1(oneCore[0]), f1(oneCore[1]), pct(oneCore[1]/oneCore[0] - 1),
			f1(eightCore[0]), f1(eightCore[1]),
			f2(busy[0]), f2(busy[1]), pct(busy[1]/busy[0] - 1),
		})
	}
	t.Notes = append(t.Notes,
		"paper: 16% → 2.8x single-core gains with file size; up to 41% fewer busy cores at 8 cores")
	return []*Table{t}
}

// Fig15 reproduces the Redis-on-Flash experiment: memtier GETs against a
// KV store whose values live behind NVMe-TCP over TLS.
func Fig15() []*Table {
	t := &Table{
		ID:      "fig15",
		Title:   "Redis-on-Flash + NVMe-TLS offload (C1, memtier GET)",
		Columns: []string{"value", "base 1c", "off 1c", "Δ1c", "base cores", "off cores", "Δcores"},
	}
	for _, size := range fileSizes {
		var oneCore, busy [2]float64
		for i, offload := range []bool{false, true} {
			w := NewStorageWorld(StorageOpts{
				OverTLS:           true,
				StorageTLSOffload: offload,
				NVMePlace:         offload,
				NVMeCRC:           offload,
			})
			res := RunKV(w, 32, size, 4*time.Millisecond)
			oneCore[i] = oneCoreGbps(&w.Model, res.Srv, res.Bytes, res.Elapsed, w.Model.DriveGbps())
			eight := nCoreGbps(&w.Model, res.Srv, res.Bytes, 8, w.Model.DriveGbps())
			busy[i] = w.Model.BusyCores(res.Srv, res.Bytes, eight)
		}
		t.Rows = append(t.Rows, []string{
			sizeLabel(size),
			f1(oneCore[0]), f1(oneCore[1]), pct(oneCore[1]/oneCore[0] - 1),
			f2(busy[0]), f2(busy[1]), pct(busy[1]/busy[0] - 1),
		})
	}
	t.Notes = append(t.Notes,
		"paper: 17% → 2.3x single-core gains with value size; up to 48% fewer busy cores")
	return []*Table{t}
}

// Table4 reproduces the latency study: one synchronous https GET at a time
// over the C1 topology, cumulatively adding the TLS offload, the NVMe-TCP
// copy offload, and the CRC offload.
func Table4() []*Table {
	t := &Table{
		ID:      "tab4",
		Title:   "Average request latency (µs), cumulative offloads",
		Columns: []string{"size", "base", "+TLS", "+copy", "+CRC", "rel (paper)"},
	}
	type combo struct {
		mode       appsim.Mode
		place, crc bool
	}
	combos := []combo{
		{appsim.ModeTLS, false, false},
		{appsim.ModeTLSOffloadZC, false, false},
		{appsim.ModeTLSOffloadZC, true, false},
		{appsim.ModeTLSOffloadZC, true, true},
	}
	paperRel := map[int]string{
		4 << 10: "0.98", 16 << 10: "0.90", 64 << 10: "0.78", 256 << 10: "0.71",
	}
	for _, size := range fileSizes {
		lat := make([]float64, len(combos))
		for i, c := range combos {
			w := NewStorageWorld(StorageOpts{
				NVMePlace:       c.place,
				NVMeCRC:         c.crc,
				TargetTxOffload: true,
			})
			res := RunHTTPC1(w, c.mode, 1, size, 20*time.Millisecond)
			if res.Requests == 0 {
				lat[i] = 0
				continue
			}
			// Latency = measured round trip plus the CPU time the request's
			// processing adds on the critical path.
			cpu := res.Srv.HostCycles() / float64(res.Requests) / w.Model.CPUHz
			lat[i] = res.AvgRTT.Seconds()*1e6 + cpu*1e6
		}
		rel := lat[3] / lat[0]
		t.Rows = append(t.Rows, []string{
			sizeLabel(size), f0(lat[0]), f0(lat[1]), f0(lat[2]), f0(lat[3]),
			fmt.Sprintf("%.2f (%s)", rel, paperRel[size]),
		})
	}
	t.Notes = append(t.Notes,
		"paper: relative latency vs baseline falls from 0.98 (4K) to 0.71 (256K); TLS gives most of it")
	return []*Table{t}
}
