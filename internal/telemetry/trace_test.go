package telemetry

import (
	"strings"
	"testing"
	"time"
)

func fixedClock(now *time.Duration) func() time.Duration {
	return func() time.Duration { return *now }
}

func TestTracerRecordsAndOrders(t *testing.T) {
	now := time.Duration(0)
	tr := NewTracer(8)
	pid := tr.AttachClock(fixedClock(&now), "world-a")
	if pid != 1 {
		t.Fatalf("first AttachClock pid = %d, want 1", pid)
	}

	now = 10 * time.Microsecond
	tr.Instant("net", "pkt.tx", "a->b")
	now = 20 * time.Microsecond
	tr.Instant1("net", "pkt.rx", "a->b", "bytes", 1500)
	start := now
	now = 25 * time.Microsecond
	tr.Span("l5p", "req", "client", start, "bytes", 64)

	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[0].Name != "pkt.tx" || evs[1].A1 != 1500 {
		t.Errorf("events recorded wrong: %+v", evs[:2])
	}
	if evs[2].Ph != PhComplete || evs[2].Dur != 5*time.Microsecond {
		t.Errorf("span: %+v", evs[2])
	}
}

func TestTracerRingWrap(t *testing.T) {
	now := time.Duration(0)
	tr := NewTracer(4)
	tr.AttachClock(fixedClock(&now), "w")
	for i := 0; i < 10; i++ {
		now = time.Duration(i) * time.Microsecond
		tr.Instant1("c", "e", "t", "i", int64(i))
	}
	if tr.DroppedEvents() != 6 {
		t.Errorf("dropped = %d, want 6", tr.DroppedEvents())
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("len = %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if ev.A1 != int64(6+i) {
			t.Errorf("event %d: A1 = %d, want %d (oldest overwritten, order kept)", i, ev.A1, 6+i)
		}
	}
}

func TestTracerMultiWorld(t *testing.T) {
	now := time.Duration(0)
	tr := NewTracer(8)
	tr.AttachClock(fixedClock(&now), "first")
	tr.Instant("c", "a", "t")
	pid2 := tr.AttachClock(fixedClock(&now), "second")
	if pid2 != 2 {
		t.Fatalf("second world pid = %d", pid2)
	}
	tr.Instant("c", "b", "t")
	evs := tr.Events()
	if evs[0].Pid != 1 || evs[1].Pid != 2 {
		t.Errorf("pids = %d,%d", evs[0].Pid, evs[1].Pid)
	}
	if ws := tr.Worlds(); len(ws) != 2 || ws[1] != "second" {
		t.Errorf("worlds = %v", ws)
	}
}

func TestNilTracerSafe(t *testing.T) { requireNilSafe(t, (*Tracer)(nil)) }

func TestDetachedTracerIsDisabled(t *testing.T) {
	tr := NewTracer(4)
	tr.Instant("c", "n", "t") // no clock attached yet
	if tr.Enabled() || tr.Len() != 0 {
		t.Error("tracer without a clock must drop events")
	}
}

func TestDisabledTracerZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting unreliable under -race")
	}
	var nilTr *Tracer
	detached := NewTracer(4)
	for name, tr := range map[string]*Tracer{"nil": nilTr, "detached": detached} {
		allocs := testing.AllocsPerRun(1000, func() {
			tr.Instant("c", "n", "t")
			tr.Instant2("c", "n", "t", "a", 1, "b", 2)
			tr.Span("c", "n", "t", 0, "a", 1)
		})
		if allocs != 0 {
			t.Errorf("%s tracer allocates %v per emit, want 0", name, allocs)
		}
	}
}

func TestEnabledTracerZeroAllocPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting unreliable under -race")
	}
	now := time.Duration(0)
	tr := NewTracer(16) // small ring: wraps during the run, still no alloc
	tr.AttachClock(fixedClock(&now), "w")
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Instant2("net", "pkt.rx", "a->b", "seq", 1, "len", 1500)
	})
	if allocs != 0 {
		t.Errorf("enabled tracer allocates %v per event, want 0", allocs)
	}
}

func TestWriteChrome(t *testing.T) {
	now := time.Duration(0)
	tr := NewTracer(8)
	tr.AttachClock(fixedClock(&now), "pair")
	now = 1500 * time.Nanosecond
	tr.Instant1("net", "pkt.tx", "a->b", "bytes", 100)
	now = 3 * time.Microsecond
	tr.Span("l5p", "req", `cli"1`, 2*time.Microsecond, "n", 7)

	var sb strings.Builder
	if err := tr.WriteChrome(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`"displayTimeUnit":"ns"`,
		`{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"pair"}}`,
		`{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"a->b"}}`,
		`{"name":"pkt.tx","cat":"net","ph":"i","ts":1.500,"s":"t","pid":1,"tid":1,"args":{"bytes":100}}`,
		`"ph":"X","ts":2.000,"dur":1.000`,
		`cli\"1`,
		`"otherData":{"droppedEvents":0}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("chrome output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteChromeReportsDroppedEvents(t *testing.T) {
	now := time.Duration(0)
	tr := NewTracer(4)
	tr.AttachClock(fixedClock(&now), "w")
	for i := 0; i < 10; i++ {
		tr.Instant("c", "e", "t")
	}
	var sb strings.Builder
	if err := tr.WriteChrome(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"otherData":{"droppedEvents":6}`) {
		t.Errorf("dropped-event count missing from chrome metadata:\n%s", sb.String())
	}
}

func TestWriteChromeDeterministic(t *testing.T) {
	build := func() string {
		now := time.Duration(0)
		tr := NewTracer(8)
		tr.AttachClock(fixedClock(&now), "w")
		for i := 0; i < 5; i++ {
			now = time.Duration(i) * time.Microsecond
			tr.Instant1("c", "e", "t", "i", int64(i))
		}
		var sb strings.Builder
		tr.WriteChrome(&sb)
		return sb.String()
	}
	if build() != build() {
		t.Error("identical runs produced different chrome JSON")
	}
}
