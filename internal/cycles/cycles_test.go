package cycles

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestLedgerChargeAndGet(t *testing.T) {
	var l Ledger
	l.Charge(HostL5P, Encrypt, 100, 64)
	l.Charge(HostL5P, Encrypt, 50, 32)
	e := l.Get(HostL5P, Encrypt)
	if e.Cycles != 150 || e.Bytes != 96 {
		t.Errorf("entry = %+v", e)
	}
}

func TestHostCyclesExcludesNIC(t *testing.T) {
	var l Ledger
	l.Charge(HostTCP, StackRx, 10, 0)
	l.Charge(NIC, Encrypt, 500, 0)
	if got := l.HostCycles(); got != 10 {
		t.Errorf("HostCycles = %v, want 10", got)
	}
	if got := l.NICCycles(); got != 500 {
		t.Errorf("NICCycles = %v", got)
	}
}

func TestAddCloneDiffRoundTrip(t *testing.T) {
	f := func(c1, c2 uint32, b1, b2 uint8) bool {
		// Integer-valued cycles keep float arithmetic exact.
		var a, b Ledger
		a.Charge(HostL5P, Copy, float64(c1), int(b1))
		b.Charge(HostL5P, Copy, float64(c2), int(b2))
		sum := a.Clone()
		sum.Add(&b)
		back := Diff(sum, &b)
		return back.Get(HostL5P, Copy) == a.Get(HostL5P, Copy)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReset(t *testing.T) {
	var l Ledger
	l.Charge(PCIe, DMA, 0, 100)
	l.Reset()
	if l.PCIeBytes(DMA) != 0 {
		t.Error("Reset left bytes behind")
	}
}

func TestStringRendersNonZero(t *testing.T) {
	var l Ledger
	l.Charge(HostTCP, StackRx, 42, 7)
	s := l.String()
	if !strings.Contains(s, "host/tcp") || !strings.Contains(s, "stack-rx") {
		t.Errorf("String() = %q", s)
	}
}

func TestModelConversions(t *testing.T) {
	m := DefaultModel()
	if m.MSS() != 1460 {
		t.Errorf("MSS = %d", m.MSS())
	}
	if m.CopyCycles(1000, 0) >= m.CopyCycles(1000, m.LLCBytes+1) {
		t.Error("spilled copies should cost more")
	}
	if m.CRCCycles(100) != 100*m.CRCPerByte {
		t.Error("CRCCycles mismatch")
	}
	if m.Seconds(m.CPUHz) != 1 {
		t.Error("Seconds(CPUHz) != 1")
	}
	if g := Gbps(125_000_000, 1); g < 0.99 || g > 1.01 {
		t.Errorf("Gbps(125MB/s) = %v, want 1", g)
	}
	if Gbps(1, 0) != 0 {
		t.Error("Gbps with zero time should be 0")
	}
}

func TestSingleCoreGbps(t *testing.T) {
	m := DefaultModel()
	var l Ledger
	// 1 cycle per byte at 2 GHz → 2 GB/s = 16 Gbps.
	l.Charge(HostL5P, Encrypt, 1e6, 0)
	got := m.SingleCoreGbps(&l, 1e6)
	if got < 15.9 || got > 16.1 {
		t.Errorf("SingleCoreGbps = %v, want 16", got)
	}
	// Cheaper-than-NIC workloads cap at line rate.
	var tiny Ledger
	tiny.Charge(HostL5P, Encrypt, 1, 0)
	if m.SingleCoreGbps(&tiny, 1e9) != m.NICGbps {
		t.Error("line-rate cap not applied")
	}
}

func TestBusyCores(t *testing.T) {
	m := DefaultModel()
	var l Ledger
	l.Charge(HostL5P, Encrypt, 2e6, 0) // 2 cycles per byte over 1e6 bytes
	// At 16 Gbps (2 GB/s) and 2 cyc/B, we need 4e9 cyc/s = 2 cores.
	got := m.BusyCores(&l, 1e6, 16)
	if got < 1.99 || got > 2.01 {
		t.Errorf("BusyCores = %v, want 2", got)
	}
	if m.BusyCores(&l, 1e6, 1e6) != float64(m.MaxCores) {
		t.Error("MaxCores cap not applied")
	}
	if m.BusyCores(&l, 0, 10) != 0 {
		t.Error("zero payload should cost zero cores")
	}
}

func TestComponentOpStrings(t *testing.T) {
	if HostL5P.String() != "host/l5p" || Encrypt.String() != "encrypt" {
		t.Error("name mismatch")
	}
	if !strings.Contains(Component(99).String(), "99") {
		t.Error("out-of-range component should render numerically")
	}
	if !strings.Contains(Op(99).String(), "99") {
		t.Error("out-of-range op should render numerically")
	}
}
