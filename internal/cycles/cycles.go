// Package cycles provides the cycle-accounting substrate used throughout the
// repository: a ledger that records where CPU work happens (which component,
// which operation, how many bytes) and a calibrated cost model that converts
// the ledger into the units the paper reports — Gbps, busy cores, and
// microseconds.
//
// The paper measures real CPU cycles with performance counters on a
// 2.0 GHz Xeon. This reproduction instead performs every data-touching
// operation for real (so the wire bytes stay correct end to end) while
// charging its cost to a ledger. Offloading an operation moves its charge
// from a host component to the NIC component; the host-side totals then
// shrink exactly the way the paper's emulation methodology (§6.2) removes
// the offloaded work from the software path.
package cycles

import (
	"fmt"
	"sort"
	"strings"
)

// Component identifies who spent the cycles (or, for PCIe, the bus bytes).
type Component int

const (
	// HostApp is application code: nginx, Redis-on-Flash, iperf, fio.
	HostApp Component = iota
	// HostL5P is the layer-5 protocol implementation (kTLS, NVMe-TCP).
	HostL5P
	// HostTCP is the TCP/IP stack, including IP and Ethernet processing.
	HostTCP
	// HostDriver is the NIC driver: descriptor handling, shadow contexts.
	HostDriver
	// NIC is offloaded work performed by the NIC device model.
	NIC
	// PCIe accounts bus transfers (bytes, not cycles): DMA of packet data,
	// descriptors, and out-of-sequence context reconstruction reads.
	PCIe
	numComponents
)

var componentNames = [numComponents]string{
	"host/app", "host/l5p", "host/tcp", "host/driver", "nic", "pcie",
}

// String returns the short, stable name used in experiment output.
func (c Component) String() string {
	if c < 0 || c >= numComponents {
		return fmt.Sprintf("component(%d)", int(c))
	}
	return componentNames[c]
}

// Op identifies the kind of work performed.
type Op int

const (
	// Copy is a data move between buffers (e.g. network buffer to block
	// layer buffer).
	Copy Op = iota
	// CRC is CRC32C digest computation or verification.
	CRC
	// Encrypt is AES-GCM encryption plus authentication tag generation.
	Encrypt
	// Decrypt is AES-GCM decryption plus authentication verification.
	Decrypt
	// StackRx is per-packet receive-side TCP/IP processing.
	StackRx
	// StackTx is per-packet transmit-side TCP/IP processing.
	StackTx
	// L5PFraming is per-message L5P header/trailer handling.
	L5PFraming
	// Driver covers descriptor posting/reaping and shadow-context updates.
	Driver
	// Syscall is the per-call user/kernel boundary cost.
	Syscall
	// AppWork is application-level request handling.
	AppWork
	// DMA is PCIe payload movement (charged in bytes to the PCIe component).
	DMA
	// CtxDMA is PCIe traffic for NIC context reconstruction after
	// out-of-sequence traffic (Fig. 16b).
	CtxDMA
	numOps
)

var opNames = [numOps]string{
	"copy", "crc", "encrypt", "decrypt", "stack-rx", "stack-tx",
	"l5p-framing", "driver", "syscall", "app", "dma", "ctx-dma",
}

// String returns the short, stable name used in experiment output.
func (o Op) String() string {
	if o < 0 || o >= numOps {
		return fmt.Sprintf("op(%d)", int(o))
	}
	return opNames[o]
}

// Entry is one ledger cell: total cycles and total bytes attributed to a
// (component, operation) pair. For the PCIe component, Cycles is unused.
type Entry struct {
	Cycles float64
	Bytes  uint64
}

// Ledger accumulates work attribution. The zero value is ready to use.
// Ledgers are not safe for concurrent use; the simulator is single-threaded.
type Ledger struct {
	cells [numComponents][numOps]Entry
}

// Charge adds cycles and bytes to a (component, op) cell.
func (l *Ledger) Charge(c Component, o Op, cyc float64, bytes int) {
	e := &l.cells[c][o]
	e.Cycles += cyc
	e.Bytes += uint64(bytes)
}

// Get returns the entry for a (component, op) cell.
func (l *Ledger) Get(c Component, o Op) Entry { return l.cells[c][o] }

// Add accumulates another ledger into l.
func (l *Ledger) Add(other *Ledger) {
	for c := Component(0); c < numComponents; c++ {
		for o := Op(0); o < numOps; o++ {
			l.cells[c][o].Cycles += other.cells[c][o].Cycles
			l.cells[c][o].Bytes += other.cells[c][o].Bytes
		}
	}
}

// Reset zeroes the ledger.
func (l *Ledger) Reset() { *l = Ledger{} }

// Clone returns a copy of the ledger.
func (l *Ledger) Clone() *Ledger {
	out := &Ledger{}
	out.cells = l.cells
	return out
}

// HostCycles returns all cycles charged to host components.
func (l *Ledger) HostCycles() float64 {
	var sum float64
	for _, c := range []Component{HostApp, HostL5P, HostTCP, HostDriver} {
		for o := Op(0); o < numOps; o++ {
			sum += l.cells[c][o].Cycles
		}
	}
	return sum
}

// HostOpCycles returns cycles charged to host components for one operation.
func (l *Ledger) HostOpCycles(o Op) float64 {
	var sum float64
	for _, c := range []Component{HostApp, HostL5P, HostTCP, HostDriver} {
		sum += l.cells[c][o].Cycles
	}
	return sum
}

// NICCycles returns cycles charged to the NIC component (work the device
// performs; it does not consume host cores).
func (l *Ledger) NICCycles() float64 {
	var sum float64
	for o := Op(0); o < numOps; o++ {
		sum += l.cells[NIC][o].Cycles
	}
	return sum
}

// PCIeBytes returns total bytes charged to the PCIe component for an op.
func (l *Ledger) PCIeBytes(o Op) uint64 { return l.cells[PCIe][o].Bytes }

// TotalBytes returns the bytes processed across the given components.
func (l *Ledger) TotalBytes(comps ...Component) uint64 {
	var sum uint64
	for _, c := range comps {
		for o := Op(0); o < numOps; o++ {
			sum += l.cells[c][o].Bytes
		}
	}
	return sum
}

// String renders the non-zero ledger cells, largest cycle counts first.
// It is intended for debugging and example output, not for parsing.
func (l *Ledger) String() string {
	type row struct {
		c Component
		o Op
		e Entry
	}
	var rows []row
	for c := Component(0); c < numComponents; c++ {
		for o := Op(0); o < numOps; o++ {
			if e := l.cells[c][o]; e.Cycles != 0 || e.Bytes != 0 {
				rows = append(rows, row{c, o, e})
			}
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].e.Cycles != rows[j].e.Cycles {
			return rows[i].e.Cycles > rows[j].e.Cycles
		}
		if rows[i].c != rows[j].c {
			return rows[i].c < rows[j].c
		}
		return rows[i].o < rows[j].o
	})
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-11s %12.0f cyc %12d B\n",
			r.c, r.o, r.e.Cycles, r.e.Bytes)
	}
	return b.String()
}

// Diff returns after − before, cell-wise. Experiments snapshot a ledger
// before the measured interval and diff afterwards.
func Diff(after, before *Ledger) *Ledger {
	out := &Ledger{}
	for c := Component(0); c < numComponents; c++ {
		for o := Op(0); o < numOps; o++ {
			out.cells[c][o].Cycles = after.cells[c][o].Cycles - before.cells[c][o].Cycles
			out.cells[c][o].Bytes = after.cells[c][o].Bytes - before.cells[c][o].Bytes
		}
	}
	return out
}
