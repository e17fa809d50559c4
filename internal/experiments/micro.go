package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/accel"
	"repro/internal/cycles"
	"repro/internal/nic"
	"repro/internal/paperdata"
)

func cleanPair() *PairWorld {
	return NewPairWorld(dcLink, nic.Config{})
}

func cleanStorage() *StorageWorld {
	return NewStorageWorld(StorageOpts{TargetTxOffload: true})
}

// Fig2 measures the paper's motivation breakdown: how many cycles per
// message are compute-bound and offloadable for NVMe-TCP 256 KiB
// reads/writes and TLS 16 KiB transmit/receive.
func Fig2() []*Table {
	t := &Table{
		ID:      "fig2",
		Title:   "L5P overheads: cycles per message (offloadable share)",
		Columns: []string{"workload", "cycles/msg", "offloadable", "share", "paper"},
	}

	// NVMe-TCP write: the client CRCs every outgoing 256 KiB capsule.
	{
		w := NewStorageWorld(StorageOpts{})
		const msgs = 24
		data := make([]byte, 256<<10)
		done := 0
		var issue func()
		issue = func() {
			if done >= msgs {
				return
			}
			w.Host.WriteBlocks(uint64(done*64), data, func(err error) {
				if err != nil {
					return // stop: the row covers the writes that completed
				}
				done++
				issue()
			})
		}
		before := w.Srv.Ledger.Clone()
		issue()
		w.Sim.RunFor(200 * time.Millisecond)
		lg := cycles.Diff(w.Srv.Ledger, before)
		total := lg.HostCycles() / float64(done)
		off := lg.HostOpCycles(cycles.CRC) / float64(done)
		t.Rows = append(t.Rows, []string{"NVMe-TCP write 256K", f0(total), "crc", pct(off / total), "46%"})
	}

	// NVMe-TCP read: copy from network buffers plus CRC verification.
	{
		w := cleanStorage()
		res := RunFio(w, 256<<10, 16, 8*time.Millisecond)
		total := res.Ledger.HostCycles() / float64(res.Requests)
		off := (res.Ledger.HostOpCycles(cycles.Copy) + res.Ledger.HostOpCycles(cycles.CRC)) /
			float64(res.Requests)
		t.Rows = append(t.Rows, []string{"NVMe-TCP read 256K", f0(total), "copy+crc", pct(off / total), "49%"})
	}

	// TLS transmit and receive with 16 KiB records.
	{
		w := cleanPair()
		res := RunIperf(w, IperfTLS, 1, 256<<10, 16<<10, 4*time.Millisecond)
		recs := float64(res.Records)
		txTotal := res.Snd.HostCycles() / recs
		txCrypto := res.Snd.HostOpCycles(cycles.Encrypt) / recs
		rxTotal := res.Rcv.HostCycles() / recs
		rxCrypto := res.Rcv.HostOpCycles(cycles.Decrypt) / recs
		t.Rows = append(t.Rows,
			[]string{"TLS transmit 16K", f0(txTotal), "encrypt", pct(txCrypto / txTotal), "74%"},
			[]string{"TLS receive 16K", f0(rxTotal), "decrypt", pct(rxCrypto / rxTotal), "60%"})
	}
	t.Notes = append(t.Notes,
		"paper column: the compute-bound share Fig. 2 reports for the same workload")
	return []*Table{t}
}

// Table1 reproduces the AES-NI vs QAT accelerator comparison.
func Table1() []*Table {
	p := accel.DefaultParams()
	t := &Table{
		ID:      "tab1",
		Title:   "Encryption bandwidth (MB/s), 16KB blocks, single core",
		Columns: []string{"cipher", "QAT 1", "QAT 128", "AES-NI 1"},
	}
	for _, c := range []accel.Cipher{accel.CBCHMACSHA1, accel.GCM} {
		t.Rows = append(t.Rows, []string{
			c.String(),
			f0(p.OffCPUMBps(c, 16<<10, 1)),
			f0(p.OffCPUMBps(c, 16<<10, 128)),
			f0(p.OnCPUMBps(c)),
		})
	}
	t.Notes = append(t.Notes, "paper: 249 / 3144 / 695 and 249 / 3109 / 3150")
	return []*Table{t}
}

// Fig3 prints the Linux TCP/IP LoC history (embedded dataset).
func Fig3() []*Table {
	t := &Table{
		ID:      "fig3",
		Title:   "Linux kernel TCP/IP processing code (LoC per year)",
		Columns: []string{"year", "total", "modified", "modified share"},
	}
	for _, r := range paperdata.LinuxNetLoC {
		tot, mod := r.TotalLoC(), r.ModifiedLoC()
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(r.Year), fmt.Sprint(tot), fmt.Sprint(mod),
			pct(float64(mod) / float64(tot)),
		})
	}
	t.Notes = append(t.Notes,
		"dataset digitized from the paper (motivation data about the Linux repository)")
	return []*Table{t}
}

// Fig4 prints the NIC price dataset and Table 2's offload generations.
func Fig4() []*Table {
	prices := &Table{
		ID:      "fig4",
		Title:   "ConnectX prices (March 2020 list)",
		Columns: []string{"gen", "model", "Gbps", "ports", "USD"},
	}
	for _, p := range paperdata.ConnectXPrices {
		prices.Rows = append(prices.Rows, []string{
			fmt.Sprint(p.Gen), p.Model, fmt.Sprint(p.Gbps),
			fmt.Sprint(p.Ports), fmt.Sprint(p.USD),
		})
	}
	prices.Notes = append(prices.Notes, fmt.Sprintf(
		"max price spread across generations at equal speed×ports: %s (the offloads come for free)",
		pct(paperdata.PriceSimilarity())))

	gens := &Table{
		ID:      "tab2",
		Title:   "Offloads introduced per ConnectX generation",
		Columns: []string{"gen", "year", "added offloads"},
	}
	for _, g := range paperdata.ConnectXGenerations {
		for i, o := range g.Offloads {
			gen, yr := "", ""
			if i == 0 {
				gen, yr = fmt.Sprint(g.Gen), fmt.Sprint(g.Year)
			}
			gens.Rows = append(gens.Rows, []string{gen, yr, o})
		}
	}
	return []*Table{prices, gens}
}

// Fig10 reproduces the fio cycle breakdown: cycles per random read against
// I/O depth, for 4 KiB and 256 KiB requests, split into crc / copy / other
// / idle, with the copy+crc share of the total.
func Fig10() []*Table {
	t := &Table{
		ID:    "fig10",
		Title: "NVMe-TCP/fio cycles per random read (single core)",
		Columns: []string{"size", "depth", "cycles/req", "crc", "copy",
			"other", "idle", "copy+crc %"},
	}
	type cfg struct {
		size   int
		depths []int
	}
	for _, c := range []cfg{
		{4 << 10, []int{1, 4, 16, 64, 256, 1024}},
		{256 << 10, []int{1, 4, 16, 64, 128, 256}},
	} {
		for _, depth := range c.depths {
			w := cleanStorage()
			dur := 6 * time.Millisecond
			if depth <= 4 {
				dur = 20 * time.Millisecond
			}
			res := RunFio(w, c.size, depth, dur)
			if res.Requests == 0 {
				continue
			}
			n := float64(res.Requests)
			crc := res.Ledger.HostOpCycles(cycles.CRC) / n
			cp := res.Ledger.HostOpCycles(cycles.Copy) / n
			busy := res.Ledger.HostCycles() / n
			other := busy - crc - cp
			// Wall cycles per request on one core. The simulator's clock
			// does not advance for CPU work, so reconstruct it: with one
			// request in flight CPU time serializes with the I/O; with a
			// deep queue it overlaps, and the slower of the two paces the
			// run.
			simCyc := res.Elapsed.Seconds() * w.Model.CPUHz
			busyTot := res.Ledger.HostCycles()
			var wallTot float64
			if depth == 1 {
				wallTot = simCyc + busyTot
			} else {
				wallTot = simCyc
				if busyTot > wallTot {
					wallTot = busyTot
				}
			}
			wall := wallTot / n
			idle := wall - busy
			if idle < 0 {
				idle = 0
				wall = busy
			}
			t.Rows = append(t.Rows, []string{
				sizeLabel(c.size), fmt.Sprint(depth), f0(wall), f0(crc),
				f0(cp), f0(other), f0(idle), pct((crc + cp) / wall),
			})
		}
	}
	t.Notes = append(t.Notes,
		"paper: 2%–8% for 4KiB; 25% (depth ≤64) to 55% (deep queues spill the LLC) for 256KiB")
	return []*Table{t}
}

// Fig11 reproduces the per-record TLS cycle breakdown across record sizes.
func Fig11() []*Table {
	t := &Table{
		ID:    "fig11",
		Title: "Kernel-TLS/iperf cycles per record (AES-GCM)",
		Columns: []string{"record", "rx other", "rx crypto", "rx %",
			"tx other", "tx crypto", "tx %"},
	}
	for _, rec := range []int{2 << 10, 4 << 10, 8 << 10, 16 << 10} {
		w := cleanPair()
		res := RunIperf(w, IperfTLS, 1, 256<<10, rec, 3*time.Millisecond)
		n := float64(res.Records)
		rxC := res.Rcv.HostOpCycles(cycles.Decrypt) / n
		rxO := res.Rcv.HostCycles()/n - rxC
		txC := res.Snd.HostOpCycles(cycles.Encrypt) / n
		txO := res.Snd.HostCycles()/n - txC
		t.Rows = append(t.Rows, []string{
			sizeLabel(rec), f0(rxO), f0(rxC), pct(rxC / (rxC + rxO)),
			f0(txO), f0(txC), pct(txC / (txC + txO)),
		})
	}
	t.Notes = append(t.Notes, "paper shares: rx 54→60%, tx 61→70% as records grow 2K→16K")
	return []*Table{t}
}

// Sec61 reproduces §6.1's headline single-core iperf gains from the real
// TLS offload: throughput up 3.3x on transmit and 2.2x on receive.
func Sec61() []*Table {
	t := &Table{
		ID:      "sec61",
		Title:   "TLS offload single-core iperf gains",
		Columns: []string{"side", "sw cyc/B", "offload cyc/B", "speedup", "paper"},
	}
	sw := RunIperf(cleanPair(), IperfTLS, 1, 256<<10, 16<<10, 3*time.Millisecond)
	hw := RunIperf(cleanPair(), IperfTLSOffload, 1, 256<<10, 16<<10, 3*time.Millisecond)
	swTx := sw.Snd.HostCycles() / float64(sw.Bytes)
	hwTx := hw.Snd.HostCycles() / float64(hw.Bytes)
	swRx := sw.Rcv.HostCycles() / float64(sw.Bytes)
	hwRx := hw.Rcv.HostCycles() / float64(hw.Bytes)
	t.Rows = append(t.Rows,
		[]string{"transmit", f2(swTx), f2(hwTx), f2(swTx / hwTx), "3.3x"},
		[]string{"receive", f2(swRx), f2(hwRx), f2(swRx / hwRx), "2.2x"})
	return []*Table{t}
}

// Sec62 validates the paper's emulation methodology: predicting offload
// performance by deleting the offloaded component from the software run
// should agree with actually offloading, within a few percent (§6.2 found
// ≤7%).
func Sec62() []*Table {
	t := &Table{
		ID:      "sec62",
		Title:   "Emulation accuracy: predicted vs. actual offload cycles/B",
		Columns: []string{"side", "predicted", "actual", "difference"},
	}
	sw := RunIperf(cleanPair(), IperfTLS, 1, 256<<10, 16<<10, 3*time.Millisecond)
	hw := RunIperf(cleanPair(), IperfTLSOffload, 1, 256<<10, 16<<10, 3*time.Millisecond)
	predTx := (sw.Snd.HostCycles() - sw.Snd.HostOpCycles(cycles.Encrypt)) / float64(sw.Bytes)
	actTx := hw.Snd.HostCycles() / float64(hw.Bytes)
	predRx := (sw.Rcv.HostCycles() - sw.Rcv.HostOpCycles(cycles.Decrypt)) / float64(sw.Bytes)
	actRx := hw.Rcv.HostCycles() / float64(hw.Bytes)
	t.Rows = append(t.Rows,
		[]string{"transmit", f2(predTx), f2(actTx), pct(math.Abs(actTx-predTx) / predTx)},
		[]string{"receive", f2(predRx), f2(actRx), pct(math.Abs(actRx-predRx) / predRx)})
	t.Notes = append(t.Notes, "paper: real vs predicted differ ≤7% in all cases")
	return []*Table{t}
}

func sizeLabel(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKiB", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}
