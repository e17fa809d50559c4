package offload

import "fmt"

// headerParser is the part of RxOps and TxOps the cursor needs: how long a
// message header is and whether a run of bytes is one.
type headerParser interface {
	HeaderLen() int
	ParseHeader(hdr []byte) (MsgLayout, bool)
}

// msgCursor is the position half of the constant-size flow context of §4.1:
// which message the byte stream is in, that message's shape, and how far
// into it the stream has come. Every engine — transmit, receive, TCP-level
// and stacked — holds exactly one, and step is the only code that decides
// where a message ends. While the receive engine is tracking (Fig. 7) the
// same cursor follows the speculated message chain without the Ops, so
// resuming the offload is a matter of telling the Ops where the cursor
// already is.
type msgCursor struct {
	p      headerParser
	hdrLen int

	// hdr[:hdrN] collects header bytes between messages and keeps the
	// current message's header while inMsg (a blind resume hands it to the
	// Ops, which keep none of it past the call). It is part of the context,
	// not a buffer of its own, so an engine is one allocation.
	hdr      [maxHeaderLen]byte
	hdrN     int
	inMsg    bool
	layout   MsgLayout
	msgOff   int    // bytes of the current message consumed
	msgIndex uint64 // messages that precede the current one
}

// maxHeaderLen is the longest message header an engine can frame: NVMe-TCP's
// 24-byte PDU header plus its header digest is the longest there is, TLS's
// record header is 5 bytes.
const maxHeaderLen = 32

func newCursor(p headerParser) msgCursor {
	h := p.HeaderLen()
	if h <= 0 || h > maxHeaderLen {
		panic(fmt.Sprintf("offload: header length %d outside 1..%d", h, maxHeaderLen))
	}
	return msgCursor{p: p, hdrLen: h}
}

// header is the header bytes collected so far (the whole header once inMsg).
func (c *msgCursor) header() []byte { return c.hdr[:c.hdrN] }

// region classifies the bytes one step consumed.
type region uint8

const (
	// regHeader is header bytes; they completed a valid header, and the
	// message began, exactly when the cursor is inMsg afterwards.
	regHeader region = iota
	regBody
	regTrailer
	// regBadHeader is the last bytes of a header that failed the check of
	// §3.3. The cursor is between messages again with nothing collected.
	regBadHeader
)

// find is the one place a header is checked — the L5P's magic pattern
// (§3.3) and the layout's own consistency. It returns the offset of the
// first header in buf and its layout, or -1.
func (c *msgCursor) find(buf []byte) (int, MsgLayout) {
	h := c.hdrLen
	for i := 0; i+h <= len(buf); i++ {
		if layout, ok := c.p.ParseHeader(buf[i : i+h]); ok && layout.valid(h) {
			return i, layout
		}
	}
	return -1, MsgLayout{}
}

// step consumes the next region of data, which must not be empty: it
// returns the region's kind, its length n, its offset within the message's
// body or trailer, and whether the message ends with it. A message's end is
// noticed when its last region is visited, so a message with nothing after
// its header ends with an empty trailer region in front of the next byte
// that arrives (settle ends it sooner for callers that cannot wait).
//
//simlint:hotpath
func (c *msgCursor) step(data []byte) (r region, n, off int, end bool) {
	if !c.inMsg {
		n = copy(c.hdr[c.hdrN:c.hdrLen], data)
		c.hdrN += n
		if c.hdrN < c.hdrLen {
			return regHeader, n, 0, false
		}
		i, layout := c.find(c.header())
		if i < 0 {
			c.hdrN = 0
			return regBadHeader, n, 0, false
		}
		c.layout, c.inMsg, c.msgOff = layout, true, c.hdrLen
		return regHeader, n, 0, false
	}
	if bodyEnd := c.layout.Total - c.layout.Trailer; c.msgOff < bodyEnd {
		r, n, off = regBody, min(bodyEnd-c.msgOff, len(data)), c.msgOff-c.layout.Header
	} else {
		r, n, off = regTrailer, min(c.layout.Total-c.msgOff, len(data)), c.msgOff-bodyEnd
	}
	c.msgOff += n
	if c.msgOff == c.layout.Total {
		c.reset(c.msgIndex + 1)
		end = true
	}
	return r, n, off, end
}

// left is how many bytes of the current message are still to come.
func (c *msgCursor) left() int { return c.layout.Total - c.msgOff }

// midHeader reports whether part of a header has been collected.
func (c *msgCursor) midHeader() bool { return !c.inMsg && c.hdrN > 0 }

// reset puts the cursor between messages, in front of message msgIndex.
func (c *msgCursor) reset(msgIndex uint64) {
	c.hdrN, c.inMsg, c.msgOff, c.msgIndex = 0, false, 0, msgIndex
}

// skim walks the cursor over bytes the Ops never see — an unoffloaded
// packet — checking each header on the way. ok=false means a header failed
// the check; rest is what follows it.
func (c *msgCursor) skim(data []byte) (rest []byte, ok bool) {
	for len(data) > 0 {
		r, n, _, _ := c.step(data)
		data = data[n:]
		if r == regBadHeader {
			return data, false
		}
	}
	return nil, true
}

// settle ends a message that has no bytes left. step leaves that to the
// next byte; a caller about to hand the position to the Ops must not.
func (c *msgCursor) settle() {
	if c.inMsg && c.left() == 0 {
		c.reset(c.msgIndex + 1)
	}
}
