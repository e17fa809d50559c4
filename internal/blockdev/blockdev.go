// Package blockdev simulates the remote NVMe SSD of the paper's testbed
// (an Optane DC P4800X living on the workload-generator machine): an
// in-memory block store with a service-latency and bandwidth envelope, plus
// the host-side block-layer buffers that NVMe-TCP reads complete into.
//
// Content is deterministic: unwritten blocks are filled with a pattern
// derived from their LBA, so multi-megabyte "disks" cost no memory until
// written and reads are reproducible across runs.
package blockdev

import (
	"encoding/binary"
	"time"

	"repro/internal/netsim"
	"repro/internal/telemetry"
)

// BlockSize is the device's logical block size.
const BlockSize = 4096

// Config sets the device's performance envelope.
type Config struct {
	// Latency is the per-request service latency.
	Latency time.Duration
	// GBps caps the device's data bandwidth; 0 means uncapped.
	GBps float64
}

// Stats counts device activity.
type Stats struct {
	Reads      uint64
	Writes     uint64
	BytesRead  uint64
	BytesWrite uint64
}

// Device is the simulated SSD.
type Device struct {
	sim      *netsim.Simulator
	cfg      Config
	written  map[uint64][]byte // sparse overlay of written blocks
	nextFree time.Duration     // bandwidth serialization point
	free     []*request        // completed requests, for the next commands

	// Stats is exported for experiments; treat as read-only.
	Stats Stats
}

// request is one command inside the device. Requests and their timers are
// recycled, so a device at steady state allocates nothing per command.
type request struct {
	dev   *Device
	timer *netsim.Timer // fires complete
	lba   uint64
	bytes int
	write bool
	data  []byte // what a write stores
	done  func()
}

// New creates a device.
func New(sim *netsim.Simulator, cfg Config) *Device {
	return &Device{sim: sim, cfg: cfg, written: make(map[uint64][]byte)}
}

// RegisterTelemetry exports the device's counters under prefix (nil-safe
// on both sides).
func (d *Device) RegisterTelemetry(reg *telemetry.Registry, prefix string) {
	if d == nil || reg == nil {
		return
	}
	reg.RegisterCounters(prefix, &d.Stats)
}

// Pattern fills dst with the deterministic content of the block at lba
// starting at byte offset off within the block. Word w of the block is
// lba*0x9E37… ^ w*0xBF58…, little-endian: one 8-byte store each, and a byte
// loop only for what an unaligned off or length leaves of a word at either
// end.
func Pattern(lba uint64, off int, dst []byte) {
	const perWord = 0xBF58476D1CE4E5B9
	base, w := lba*0x9E3779B97F4A7C15, uint64(off/8)
	if r := off % 8; r != 0 {
		v := (base ^ w*perWord) >> (8 * r)
		n := min(8-r, len(dst))
		for i := range dst[:n] {
			dst[i], v = byte(v), v>>8
		}
		dst, w = dst[n:], w+1
	}
	for ; len(dst) >= 8; dst, w = dst[8:], w+1 {
		binary.LittleEndian.PutUint64(dst, base^w*perWord)
	}
	v := base ^ w*perWord
	for i := range dst {
		dst[i], v = byte(v), v>>8
	}
}

// Fill copies the current content of the blocks starting at lba into dst,
// a whole number of blocks long: what was last written to a block, or its
// pattern.
func (d *Device) Fill(lba uint64, dst []byte) {
	for ; len(dst) > 0; dst = dst[BlockSize:] {
		if b, ok := d.written[lba]; ok {
			copy(dst[:BlockSize], b)
		} else {
			Pattern(lba, 0, dst[:BlockSize])
		}
		lba++
	}
}

// Read services a read of blocks [lba, lba+count) and calls done when the
// simulated device completes it. The data is what Fill returns at that
// moment: done has it written, whole or in pieces, straight into buffers of
// its own, and the device stages nothing.
func (d *Device) Read(lba uint64, count int, done func()) {
	d.submit(lba, count*BlockSize, false, nil, done)
}

// Write stores data (a multiple of BlockSize) at lba and calls done when
// the device completes.
func (d *Device) Write(lba uint64, data []byte, done func()) {
	if len(data)%BlockSize != 0 {
		panic("blockdev: unaligned write")
	}
	d.submit(lba, len(data), true, data, done)
}

// submit starts a command: its completion fires after the
// bandwidth-limited transfer time plus the latency.
func (d *Device) submit(lba uint64, bytes int, write bool, data []byte, done func()) {
	var r *request
	if n := len(d.free); n > 0 {
		r, d.free = d.free[n-1], d.free[:n-1]
	} else {
		r = &request{dev: d}
		r.timer = d.sim.NewTimer(r.complete)
	}
	r.lba, r.bytes, r.write, r.data, r.done = lba, bytes, write, data, done
	now := d.sim.Now()
	svcStart := max(now, d.nextFree)
	var xfer time.Duration
	if d.cfg.GBps > 0 {
		xfer = time.Duration(float64(r.bytes) / (d.cfg.GBps * 1e9) * float64(time.Second))
	}
	d.nextFree = svcStart + xfer
	r.timer.Reset(svcStart + xfer + d.cfg.Latency - now)
}

// complete is the device finishing r.
func (r *request) complete() {
	d := r.dev
	if !r.write {
		d.Stats.Reads++
		d.Stats.BytesRead += uint64(r.bytes)
	} else {
		d.Stats.Writes++
		d.Stats.BytesWrite += uint64(r.bytes)
		for i := 0; i*BlockSize < r.bytes; i++ {
			blk := make([]byte, BlockSize)
			copy(blk, r.data[i*BlockSize:])
			d.written[r.lba+uint64(i)] = blk
		}
	}
	done := r.done
	r.data, r.done = nil, nil
	d.free = append(d.free, r) // done may submit again and take it
	if done != nil {
		done()
	}
}
