// Package wire models the frame type, the packet, and the frame pool the
// //simlint:hotpath functions take their frames from.
package wire

// Frame mirrors the serialized frame type.
type Frame []byte

// Packet mirrors the parsed packet.
type Packet struct{}

// Marshal mirrors the allocating serializer.
func (p *Packet) Marshal() Frame { return make(Frame, 64) }

// MarshalHeaders mirrors the in-place serializer.
func (p *Packet) MarshalHeaders(buf Frame) {}

// FramePool mirrors the shared pool.
type FramePool struct{}

// Get mirrors a pooled allocation.
func (p *FramePool) Get(n int) Frame { return make(Frame, n) }
