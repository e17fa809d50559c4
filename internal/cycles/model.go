package cycles

// Model holds the calibrated cost constants and machine parameters. The
// defaults (DefaultModel) are tuned so that the cycle breakdowns of the
// paper's Figures 2, 10 and 11 come out with the same shape and roughly the
// same compute-bound fractions (46%–74%).
//
// All per-byte constants are cycles per byte on the modeled 2.0 GHz core;
// fixed costs are cycles per event.
type Model struct {
	// CPUHz is the modeled core frequency (paper: Xeon E5-2660 v4, 2.0 GHz).
	CPUHz float64
	// MaxCores bounds the macrobenchmark experiments (paper uses 8).
	MaxCores int
	// NICGbps is the line rate of the modeled NIC (ConnectX-6 Dx, 100G).
	NICGbps float64
	// PCIeGbps is the host-interface bandwidth (PCIe 3.0 x16 ≈ 126 Gbit/s
	// effective). The lifecycle layer converts DMA'd bytes to stage
	// nanoseconds with it; 0 disables the conversion.
	PCIeGbps float64
	// DriveGBps is the remote SSD's max read bandwidth (P4800X, 2.67 GB/s).
	DriveGBps float64
	// LLCBytes is the last-level cache size; working sets beyond it pay
	// CopyPerByteSpilled instead of CopyPerByte (Fig. 10, depth ≥ 128).
	LLCBytes int

	// CopyPerByte is an LLC-resident memcpy.
	CopyPerByte float64
	// CopyPerByteSpilled is a DRAM-bound memcpy (working set > LLC).
	CopyPerByteSpilled float64
	// CRCPerByte is CRC32C with the SSE4.2 instruction.
	CRCPerByte float64
	// AESGCMPerByte covers AES-128-GCM with AES-NI, either direction,
	// including GHASH authentication.
	AESGCMPerByte float64

	// StackRxPerPacket is receive-side TCP/IP+netdevice processing.
	StackRxPerPacket float64
	// AckRxFactor scales StackRxPerPacket for payload-less (pure-ACK)
	// packets, which skip payload delivery and socket wakeups.
	AckRxFactor float64
	// StackTxPerPacket is transmit-side processing before batching.
	StackTxPerPacket float64
	// TxBatchFactor divides StackTxPerPacket when segmentation offload
	// batches packet descriptors (the stack hands the NIC large sends).
	TxBatchFactor float64
	// L5PPerMessage is per-record/per-capsule framing work.
	L5PPerMessage float64
	// DriverPerPacket is descriptor post/reap plus shadow-context checks.
	DriverPerPacket float64
	// DriverPerOffloadDescr is the extra special descriptor written during
	// transmit-side context recovery (§4.2).
	DriverPerOffloadDescr float64
	// SyscallCost is one user/kernel crossing.
	SyscallCost float64
	// AppPerRequest is application bookkeeping per request/response.
	AppPerRequest float64
	// ResyncUpcallCost is one l5o_resync_rx_req/resp round through the
	// driver and L5P (§4.3).
	ResyncUpcallCost float64
	// FioPerIO is the synchronous I/O completion path fio pays per request
	// (interrupt, block-layer completion, context switch back into fio).
	// Real NVMe-TCP sustains only tens of thousands of IOPS per core,
	// implying tens of kilocycles of per-IO overhead beyond byte costs.
	FioPerIO float64

	// MTU is the link MTU; MSS is MTU minus IP+TCP headers.
	MTU int

	// MinRTOMicros and MaxRTOMicros bound the TCP retransmission timer.
	// Datacenter deployments tune the floor far below the WAN default.
	MinRTOMicros float64
	MaxRTOMicros float64
}

// DefaultModel returns the calibration used by all experiments.
func DefaultModel() Model {
	return Model{
		CPUHz:     2.0e9,
		MaxCores:  8,
		NICGbps:   100,
		PCIeGbps:  126,
		DriveGBps: 2.67,
		LLCBytes:  32 << 20,

		CopyPerByte:        0.50,
		CopyPerByteSpilled: 1.60,
		CRCPerByte:         0.45,
		AESGCMPerByte:      1.55,

		StackRxPerPacket:      950,
		AckRxFactor:           0.25,
		StackTxPerPacket:      950,
		TxBatchFactor:         4.0,
		L5PPerMessage:         900,
		DriverPerPacket:       120,
		DriverPerOffloadDescr: 320,
		SyscallCost:           600,
		AppPerRequest:         2200,
		ResyncUpcallCost:      1800,
		FioPerIO:              30000,

		MTU: 1500,

		MinRTOMicros: 20000,
		MaxRTOMicros: 4e6,
	}
}

// MSS returns the TCP maximum segment size for the model's MTU.
func (m *Model) MSS() int { return m.MTU - 40 }

// CopyCycles returns the cost of copying n bytes with the given working-set
// size (bytes touched repeatedly by the workload) deciding LLC residency.
func (m *Model) CopyCycles(n, workingSet int) float64 {
	if workingSet > m.LLCBytes {
		return float64(n) * m.CopyPerByteSpilled
	}
	return float64(n) * m.CopyPerByte
}

// CRCCycles returns the cost of CRC32C over n bytes.
func (m *Model) CRCCycles(n int) float64 { return float64(n) * m.CRCPerByte }

// GCMCycles returns the cost of AES-GCM over n bytes (either direction).
func (m *Model) GCMCycles(n int) float64 { return float64(n) * m.AESGCMPerByte }

// Seconds converts cycles on one modeled core to seconds.
func (m *Model) Seconds(cyc float64) float64 { return cyc / m.CPUHz }

// Gbps converts bytes moved in the given number of core-seconds to Gbps.
func Gbps(bytes uint64, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(bytes) * 8 / seconds / 1e9
}

// SingleCoreGbps returns the throughput one fully-busy core sustains when
// delivering the ledger's payload bytes: the core can execute CPUHz cycles
// per second, and the ledger says how many cycles each payload byte costs.
func (m *Model) SingleCoreGbps(l *Ledger, payloadBytes uint64) float64 {
	cyc := l.HostCycles()
	if cyc <= 0 {
		return m.NICGbps
	}
	bytesPerSec := float64(payloadBytes) / (cyc / m.CPUHz)
	gbps := bytesPerSec * 8 / 1e9
	if gbps > m.NICGbps {
		gbps = m.NICGbps
	}
	return gbps
}

// BusyCores returns how many cores are needed to sustain targetGbps given
// the ledger's cycles-per-byte, capped at MaxCores.
func (m *Model) BusyCores(l *Ledger, payloadBytes uint64, targetGbps float64) float64 {
	if payloadBytes == 0 {
		return 0
	}
	cycPerByte := l.HostCycles() / float64(payloadBytes)
	bytesPerSec := targetGbps * 1e9 / 8
	cores := cycPerByte * bytesPerSec / m.CPUHz
	if cores > float64(m.MaxCores) {
		cores = float64(m.MaxCores)
	}
	return cores
}

// DriveGbps returns the drive's max bandwidth expressed in Gbps.
func (m *Model) DriveGbps() float64 { return m.DriveGBps * 8 }
