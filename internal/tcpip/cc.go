package tcpip

import (
	"fmt"
	"math"
	"time"
)

// CongestionControl is the pluggable sender-side congestion controller. The
// socket owns loss *detection* (dup-ACK counting, SACK scoreboard, RTO) and
// tells the controller what happened; the controller owns the congestion
// window and slow-start threshold. All sizes are bytes; now is virtual time
// from the simulator (controllers must not read wall clocks).
//
// Spurious-RTO undo: OnRTO snapshots the pre-collapse window, and Undo
// restores it when DSACK evidence later proves the timeout spurious.
type CongestionControl interface {
	// Name returns the registry name ("newreno", "cubic").
	Name() string
	// Init seeds the initial window for a fresh connection.
	Init(mss int)
	// OnAck reacts to newly acknowledged bytes outside loss recovery.
	OnAck(acked, mss int, now time.Duration)
	// OnDupAck inflates the window for a duplicate ACK during recovery
	// (a packet left the network).
	OnDupAck(mss int)
	// OnPartialAck deflates for a partial ACK during recovery.
	OnPartialAck(acked, mss int)
	// OnEnterRecovery takes the fast-retransmit reduction; flight is the
	// outstanding byte count at detection time.
	OnEnterRecovery(flight, mss int, now time.Duration)
	// OnExitRecovery collapses the inflated window when recovery completes.
	OnExitRecovery(mss int)
	// OnRTO collapses to one segment after a retransmission timeout and
	// snapshots the prior state for a possible Undo.
	OnRTO(flight, mss int, now time.Duration)
	// OnECE takes the once-per-window ECN reduction (RFC 3168).
	OnECE(mss int, now time.Duration)
	// Undo restores the state snapshotted by the latest OnRTO, for
	// DSACK-proven spurious timeouts. A second call is a no-op.
	Undo()
	// Cwnd returns the current congestion window in bytes.
	Cwnd() int
	// Ssthresh returns the current slow-start threshold in bytes.
	Ssthresh() int
}

// NewCongestionControl builds a controller by name. The empty name selects
// NewReno, the stack default.
func NewCongestionControl(name string) (CongestionControl, error) {
	bind, err := ccBinder(name)
	if err != nil {
		return nil, err
	}
	return bind(new(ccState)), nil
}

// ccBinder resolves a controller name to the function that binds that
// controller to a ccState its caller owns: a Socket holds its ccState by
// value, so a connection's congestion control costs no allocation of its
// own.
func ccBinder(name string) (func(*ccState) CongestionControl, error) {
	switch name {
	case "", "newreno":
		return bindNewReno, nil
	case "cubic":
		return bindCubic, nil
	}
	return nil, fmt.Errorf("tcpip: unknown congestion control %q", name)
}

func bindNewReno(st *ccState) CongestionControl { return (*newReno)(st) }
func bindCubic(st *ccState) CongestionControl   { return (*cubic)(st) }

// ccState is the congestion state of either controller. NewReno uses the
// window, the threshold and the undo snapshot; CUBIC also its growth curve.
type ccState struct {
	cwnd, ssthresh int
	undoCwnd       int // snapshot from OnRTO; 0 = none
	undoSsthresh   int

	wMaxSeg float64       // CUBIC: window at last reduction, in segments
	epoch   time.Duration // CUBIC: start of the current growth epoch; 0 = unset
	k       float64       // CUBIC: seconds until the cubic reaches wMaxSeg again
}

// newReno is RFC 5681/6582 NewReno, byte-counted the way the pre-extraction
// inline code did it (the arithmetic is kept bit-identical so seeded runs
// reproduce).
type newReno ccState

func (r *newReno) Name() string { return "newreno" }

func (r *newReno) Init(mss int) {
	r.cwnd = 10 * mss
	r.ssthresh = 1 << 30
}

func (r *newReno) OnAck(acked, mss int, now time.Duration) {
	if r.cwnd < r.ssthresh {
		r.cwnd += acked // slow start
	} else {
		r.cwnd += max(mss*mss/r.cwnd, 1) // congestion avoidance
	}
}

func (r *newReno) OnDupAck(mss int) { r.cwnd += mss }

func (r *newReno) OnPartialAck(acked, mss int) {
	r.cwnd = max(r.cwnd-acked+mss, mss)
}

func (r *newReno) OnEnterRecovery(flight, mss int, now time.Duration) {
	r.ssthresh = max(flight/2, 2*mss)
	r.cwnd = r.ssthresh + 3*mss
}

func (r *newReno) OnExitRecovery(mss int) { r.cwnd = r.ssthresh }

func (r *newReno) OnRTO(flight, mss int, now time.Duration) {
	r.undoCwnd, r.undoSsthresh = r.cwnd, r.ssthresh
	r.ssthresh = max(flight/2, 2*mss)
	r.cwnd = mss
}

func (r *newReno) OnECE(mss int, now time.Duration) {
	r.ssthresh = max(r.cwnd/2, 2*mss)
	r.cwnd = r.ssthresh
}

func (r *newReno) Undo() {
	if r.undoCwnd == 0 {
		return
	}
	r.cwnd, r.ssthresh = r.undoCwnd, r.undoSsthresh
	r.undoCwnd, r.undoSsthresh = 0, 0
}

func (r *newReno) Cwnd() int     { return r.cwnd }
func (r *newReno) Ssthresh() int { return r.ssthresh }

// CUBIC constants (RFC 8312): beta is the multiplicative-decrease factor,
// c the cubic scaling constant (segments/sec³).
const (
	cubicBeta = 0.7
	cubicC    = 0.4
)

// cubic is RFC 8312 CUBIC: window growth in congestion avoidance follows a
// cubic of the virtual time since the last reduction, anchored at the
// window size where the loss happened (wMax). Recovery inflation/deflation
// mechanics are shared with NewReno; only the growth curve and the
// reduction factor differ.
type cubic ccState

func (c *cubic) Name() string { return "cubic" }

func (c *cubic) Init(mss int) {
	c.cwnd = 10 * mss
	c.ssthresh = 1 << 30
}

func (c *cubic) OnAck(acked, mss int, now time.Duration) {
	if c.cwnd < c.ssthresh {
		c.cwnd += acked // slow start
		return
	}
	if c.epoch == 0 {
		c.epoch = now
		if seg := float64(c.cwnd) / float64(mss); c.wMaxSeg < seg {
			c.wMaxSeg = seg
		}
		c.k = math.Cbrt(c.wMaxSeg * (1 - cubicBeta) / cubicC)
	}
	t := (now - c.epoch).Seconds()
	targetSeg := cubicC*math.Pow(t-c.k, 3) + c.wMaxSeg
	target := int(targetSeg * float64(mss))
	if target > c.cwnd {
		// Spread the climb over the window's worth of ACKs; never grow
		// faster than slow start would on the same ACK.
		step := (target - c.cwnd) * acked / max(c.cwnd, mss)
		c.cwnd += max(min(step, acked), 1)
	} else {
		// At or above the curve: creep to stay responsive (the RFC's
		// TCP-friendly region is approximated by a Reno-rate creep).
		c.cwnd += max(mss*mss/c.cwnd, 1)
	}
}

func (c *cubic) OnDupAck(mss int) { c.cwnd += mss }

func (c *cubic) OnPartialAck(acked, mss int) {
	c.cwnd = max(c.cwnd-acked+mss, mss)
}

func (c *cubic) reduce(flight, mss int) {
	c.wMaxSeg = float64(c.cwnd) / float64(mss)
	c.epoch = 0
	c.ssthresh = max(int(float64(flight)*cubicBeta), 2*mss)
}

func (c *cubic) OnEnterRecovery(flight, mss int, now time.Duration) {
	c.reduce(flight, mss)
	c.cwnd = c.ssthresh + 3*mss
}

func (c *cubic) OnExitRecovery(mss int) { c.cwnd = c.ssthresh }

func (c *cubic) OnRTO(flight, mss int, now time.Duration) {
	c.undoCwnd, c.undoSsthresh = c.cwnd, c.ssthresh
	c.reduce(flight, mss)
	c.cwnd = mss
}

func (c *cubic) OnECE(mss int, now time.Duration) {
	c.reduce(c.cwnd, mss)
	c.cwnd = c.ssthresh
}

func (c *cubic) Undo() {
	if c.undoCwnd == 0 {
		return
	}
	c.cwnd, c.ssthresh = c.undoCwnd, c.undoSsthresh
	c.undoCwnd, c.undoSsthresh = 0, 0
	c.epoch = 0
}

func (c *cubic) Cwnd() int     { return c.cwnd }
func (c *cubic) Ssthresh() int { return c.ssthresh }
