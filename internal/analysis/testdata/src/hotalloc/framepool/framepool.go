// Package framepool exercises the frame-pool half of the hotalloc
// analyzer: a //simlint:hotpath function takes its frames from the pool,
// never from make, a literal or the allocating Marshal.
package framepool

import "hotalloc/wire"

// transmit is marked: a frame built outside the pool is flagged, the
// pooled path is not.
//
//simlint:hotpath
func transmit(pool *wire.FramePool, pkt *wire.Packet) wire.Frame {
	bad := make(wire.Frame, 128) // want `make allocates in a //simlint:hotpath function`
	lit := wire.Frame{1, 2, 3}   // want `wire.Frame literal allocates a frame outside the pool`
	marshalled := pkt.Marshal()  // want `Marshal allocates its own frame`
	_, _, _ = bad, lit, marshalled

	frame := pool.Get(128) // the pooled path
	pkt.MarshalHeaders(frame)
	return frame
}

// coldTransmit carries no mark: the same frames pass.
func coldTransmit(pool *wire.FramePool, pkt *wire.Packet) wire.Frame {
	bad := make(wire.Frame, 128)
	lit := wire.Frame{1, 2, 3}
	marshalled := pkt.Marshal()
	_, _, _ = bad, lit, marshalled

	frame := pool.Get(128)
	pkt.MarshalHeaders(frame)
	return frame
}
