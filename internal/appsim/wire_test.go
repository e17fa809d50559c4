package appsim

import (
	"bytes"
	"testing"

	"repro/internal/cycles"
	"repro/internal/netsim"
	"repro/internal/tcpip"
	"repro/internal/wire"
)

// These tests drive one server or client connection over pipe, a stream
// that records what is written to it and delivers what the test hands it.

type pipe struct {
	out    []byte
	onData func(tcpip.Chunk)
	closed bool
	rx     []byte // the delivered chunk's memory, poisoned after delivery
}

func (p *pipe) Write(b []byte) int             { p.out = append(p.out, b...); return len(b) }
func (p *pipe) WriteZC(b []byte) int           { return p.Write(b) }
func (p *pipe) WriteSpace() int                { return 1 << 30 }
func (p *pipe) WriteSeq() uint32               { return 0 }
func (p *pipe) AckedSeq() uint32               { return 0 }
func (p *pipe) ReadSeq() uint32                { return 0 }
func (p *pipe) SetOnData(fn func(tcpip.Chunk)) { p.onData = fn }
func (p *pipe) SetOnError(func(error))         {}
func (p *pipe) SetOnDrain(func())              {}
func (p *pipe) Flow() wire.FlowID              { return wire.FlowID{} }
func (p *pipe) Model() *cycles.Model           { return nil }
func (p *pipe) Ledger() *cycles.Ledger         { return nil }
func (p *pipe) Close()                         { p.closed = true }

// deliver hands in to the reader in chunks of at most n bytes. Each chunk
// is poisoned once the reader returns, as a reused receive frame would be.
func (p *pipe) deliver(in []byte, n int) {
	for len(in) > 0 {
		k := min(n, len(in))
		p.rx = append(p.rx[:0], in[:k]...)
		p.onData(tcpip.Chunk{Data: p.rx})
		for i := range p.rx {
			p.rx[i] = 0xDB
		}
		in = in[k:]
	}
}

// testServer serves f from the page cache over a pipe; RESP values are
// 100 bytes.
func testServer(f *Format) (*Server, *pipe) {
	model := cycles.DefaultModel()
	s := &Server{cfg: ServerConfig{Format: f, Store: PageCacheStore{}, ValueSize: 100},
		model: &model, ledger: &cycles.Ledger{}}
	p := &pipe{}
	s.serve(p)
	return s, p
}

// testClient runs connection 0 of a client cycling through three objects
// over a pipe; it has written its first request, for object 0.
func testClient(f *Format) (*Client, *pipe) {
	c := &Client{sim: netsim.New(), cfg: ClientConfig{Format: f, FileSize: 100, Objects: 3}}
	p := &pipe{}
	c.serve(p, 0)
	return c, p
}

// response is the well-framed response carrying n bytes of object id.
func response(f *Format, id uint64, n int) []byte {
	r := f.appendHeader(nil, n)
	body := make([]byte, n)
	f.Content(id, 0, body)
	return append(append(r, body...), f.trailer...)
}

var formats = []*Format{HTTP, RESP}

func TestWireBytes(t *testing.T) {
	for _, c := range []struct{ got, want string }{
		{string(HTTP.appendRequest(nil, 3, 65536)), "GET /f/65536/3 HTTP/1.1\r\nHost: sim\r\n\r\n"},
		{string(HTTP.appendHeader(nil, 65536)), "HTTP/1.1 200 OK\r\nContent-Length: 65536\r\n\r\n"},
		{string(RESP.appendRequest(nil, 3, 65536)), "GET k3\r\n"},
		{string(RESP.appendHeader(nil, 65536)), "$65536\r\n"},
	} {
		if c.got != c.want {
			t.Errorf("got %q, want %q", c.got, c.want)
		}
	}
}

func TestServerAnswersRequests(t *testing.T) {
	for _, f := range formats {
		s, p := testServer(f)
		var in []byte
		for id := uint64(0); id < 3; id++ {
			in = f.appendRequest(in, id, 100)
		}
		p.deliver(in, 7)
		var want []byte
		for id := uint64(0); id < 3; id++ {
			want = append(want, response(f, id, 100)...)
		}
		if !bytes.Equal(p.out, want) || s.Stats.Requests != 3 || s.Stats.Errors != 0 {
			t.Errorf("%v: %d requests, %d errors, output %q", f, s.Stats.Requests, s.Stats.Errors, p.out)
		}
	}
}

// TestServerRefusesBadSizes: a size read from the wire is used only in
// (0, 16 MiB], the file extent; anything else is a 400, never a slice of
// a negative or unbounded length.
func TestServerRefusesBadSizes(t *testing.T) {
	for _, req := range []string{"-1/0", "0/0", "16777217/0", "99999999999999999999/0", "x/0", "5/-1", "5"} {
		s, p := testServer(HTTP)
		p.deliver([]byte("GET /f/"+req+" HTTP/1.1\r\nHost: sim\r\n\r\n"), 1<<10)
		if string(p.out) != HTTP.bad || s.Stats.Errors != 1 || s.Stats.Requests != 0 {
			t.Errorf("/f/%s: %d errors, %d requests, answered %q", req, s.Stats.Errors, s.Stats.Requests, p.out)
		}
	}
	s, p := testServer(HTTP)
	p.deliver(HTTP.appendRequest(nil, 1, 16<<20), 1<<10)
	if s.Stats.Requests != 1 || len(p.out) != len(response(HTTP, 1, 16<<20)) {
		t.Errorf("a whole 16 MiB file: %d requests, %d bytes out", s.Stats.Requests, len(p.out))
	}
}

// TestServerCapsRequestBuffer: bytes with no request terminator are
// buffered up to maxHeader, then the server counts an error and closes.
func TestServerCapsRequestBuffer(t *testing.T) {
	for _, f := range formats {
		s, p := testServer(f)
		p.deliver(bytes.Repeat([]byte{'x'}, maxHeader-1), 64)
		if p.closed || s.Stats.Errors != 0 {
			t.Errorf("%v: closed=%v with %d errors below the cap", f, p.closed, s.Stats.Errors)
		}
		p.deliver([]byte{'x'}, 1)
		p.deliver(f.appendRequest(nil, 0, 100), 64)
		if !p.closed || s.Stats.Errors != 1 || len(p.out) != 0 {
			t.Errorf("%v: closed=%v with %d errors and %d bytes out at the cap", f, p.closed, s.Stats.Errors, len(p.out))
		}
	}
}

// TestClientRejectsBadHeaders: a response header that is not a success
// with a length in [0, extent] counts an error, is consumed, and the next
// request goes out; the well-framed response after it is counted.
func TestClientRejectsBadHeaders(t *testing.T) {
	for _, c := range []struct {
		f   *Format
		hdr string
	}{
		{HTTP, "HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\n"},
		{HTTP, "HTTP/1.1 200 OK\r\nContent-Length: 16777217\r\n\r\n"},
		{HTTP, "HTTP/1.1 200 OK\r\n\r\n"},
		{HTTP, HTTP.bad},
		{HTTP, HTTP.failed},
		{RESP, "$-2\r\n"},
		{RESP, "$abc\r\n"},
		{RESP, RESP.bad},
	} {
		cl, p := testClient(c.f)
		p.deliver(append([]byte(c.hdr), response(c.f, 1, 50)...), 5)
		want := ClientStats{Responses: 1, Bytes: 50, Errors: 1}
		if cl.Stats != want || p.closed {
			t.Errorf("%v %q: stats %+v, closed=%v; want %+v", c.f, c.hdr, cl.Stats, p.closed, want)
		}
	}
}

// TestClientVerifiesEveryByte: one flipped byte after the header, in the
// body wherever it falls or in the trailer, is a VerifyFails and not a
// response.
func TestClientVerifiesEveryByte(t *testing.T) {
	for _, f := range formats {
		good := response(f, 0, 5000) // two blocks of the extent
		body := len(f.appendHeader(nil, 5000))
		for _, at := range []int{body, body + 4095, body + 4096, body + 4999} {
			cl, p := testClient(f)
			bad := append([]byte(nil), good...)
			bad[at] ^= 1
			p.deliver(bad, 1448)
			if want := (ClientStats{VerifyFails: 1}); cl.Stats != want {
				t.Errorf("%v, byte %d flipped: stats %+v, want %+v", f, at, cl.Stats, want)
			}
		}
		if f.trailer != "" {
			cl, p := testClient(f)
			bad := append([]byte(nil), good...)
			bad[len(bad)-1] = 'x'
			p.deliver(bad, 1448)
			if want := (ClientStats{VerifyFails: 1}); cl.Stats != want {
				t.Errorf("%v, bad trailer: stats %+v, want %+v", f, cl.Stats, want)
			}
		}
	}
}

// TestClientCapsHeader: a header longer than maxHeader closes the
// connection with one error.
func TestClientCapsHeader(t *testing.T) {
	for _, f := range formats {
		cl, p := testClient(f)
		p.deliver(bytes.Repeat([]byte{'x'}, 2*maxHeader), 100)
		if !p.closed || cl.Stats.Errors != 1 {
			t.Errorf("%v: closed=%v, %d errors", f, p.closed, cl.Stats.Errors)
		}
	}
}

// clientModel is what a client connection must count for the response
// stream in, judged whole rather than chunk by chunk: ids cycle through
// 0..objects-1, and a response is a success only if its body is the
// object's content and its trailer the format's.
func clientModel(f *Format, in []byte, objects uint64) (st ClientStats) {
	for id := uint64(0); ; id = (id + 1) % objects {
		i := bytes.Index(in, []byte(f.end))
		if i < 0 || i+len(f.end) > maxHeader {
			if len(in) >= maxHeader {
				st.Errors++ // the client closes
			}
			return st
		}
		n, ok := f.parseHeader(in[:i+len(f.end)])
		in = in[i+len(f.end):]
		if !ok {
			st.Errors++
			continue
		}
		if len(in) < n+len(f.trailer) {
			return st
		}
		want := make([]byte, n)
		f.Content(id, 0, want)
		if bytes.Equal(in[:n], want) && string(in[n:n+len(f.trailer)]) == f.trailer {
			st.Responses++
			st.Bytes += uint64(n)
		} else {
			st.VerifyFails++
		}
		in = in[n+len(f.trailer):]
	}
}

// FuzzClient feeds arbitrary bytes, in arbitrary chunks, to a client
// connection as its response stream, in both formats. It must not panic,
// and it must count what clientModel counts: a response only when it is
// well framed and every body byte is right.
func FuzzClient(fz *testing.F) {
	for _, f := range formats {
		ok := append(response(f, 0, 5), response(f, 1, 40)...)
		fz.Add(ok, uint8(0))
		fz.Add(ok, uint8(99))
		bad := append([]byte(nil), ok...)
		bad[len(bad)-3] ^= 0x40
		fz.Add(bad, uint8(6))
		fz.Add(append([]byte(f.bad), response(f, 1, 3)...), uint8(2))
	}
	fz.Add([]byte("$-2\r\n$abc\r\nHTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\n"), uint8(3))
	fz.Fuzz(func(t *testing.T, in []byte, chunk uint8) {
		for _, f := range formats {
			cl, p := testClient(f)
			p.deliver(in, int(chunk)+1)
			if want := clientModel(f, in, 3); cl.Stats != want {
				t.Fatalf("%v: stats %+v, want %+v", f, cl.Stats, want)
			}
		}
	})
}

// serverModel is what a server connection must write and count for the
// request stream in, judged whole rather than chunk by chunk.
func serverModel(f *Format, in []byte) (out []byte, st ServerStats, closed bool) {
	for {
		i := bytes.Index(in, []byte(f.end))
		if i < 0 || i+len(f.end) > maxHeader {
			if closed = i >= 0 || len(in) >= maxHeader; closed {
				st.Errors++
			}
			return out, st, closed
		}
		id, n, ok := f.parseRequest(in[:i+len(f.end)], 100)
		in = in[i+len(f.end):]
		if !ok {
			st.Errors++
			out = append(out, f.bad...)
			continue
		}
		st.Requests++
		st.BytesServed += uint64(n)
		out = append(out, response(f, id, n)...)
	}
}

// FuzzServer feeds arbitrary bytes, in arbitrary chunks, to a server
// connection, in both formats. It must not panic, and it must write,
// count and close as serverModel does: a request longer than maxHeader
// closes the connection wherever the chunks happen to split it.
func FuzzServer(fz *testing.F) {
	for _, f := range formats {
		fz.Add(append(f.appendRequest(nil, 1, 100), f.appendRequest(nil, 2, 40)...), uint8(5))
		fz.Add(append([]byte("GET /f/-1/0 HTTP/1.1\r\nHost: sim\r\n\r\n"), f.appendRequest(nil, 0, 1)...), uint8(255))
	}
	fz.Fuzz(func(t *testing.T, in []byte, chunk uint8) {
		for _, f := range formats {
			s, p := testServer(f)
			p.deliver(in, int(chunk)+1)
			out, st, closed := serverModel(f, in)
			if !bytes.Equal(p.out, out) || s.Stats != st || p.closed != closed {
				t.Fatalf("%v: stats %+v, closed=%v, %d bytes out; want %+v, closed=%v, %d bytes",
					f, s.Stats, p.closed, len(p.out), st, closed, len(out))
			}
		}
	})
}
