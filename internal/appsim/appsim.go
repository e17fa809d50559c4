// Package appsim provides the request/response applications of the
// paper's §6.3: one server and one load generator, run over the simulated
// TCP stack with either of two wire formats. With HTTP they are nginx and
// wrk (Figs. 12–14, Table 4, Fig. 19); with RESP they are Redis-on-Flash
// and memtier (Fig. 15). The server runs in four modes — plain, software
// kTLS, the TLS NIC offload, and the offload plus zero-copy sendfile (§5.2).
//
// Objects are addressed by id and live on fixed extents of the simulated
// SSD, so their content is deterministic. The server fetches them from a
// page-cache model (the paper's C2 configuration: all data resident, no
// storage traffic) or through NVMe-TCP from the remote drive (C1: every
// request hits the drive). The client checks every body byte it receives
// against that content.
//
// The server and the client never branch on the format: a Format is data,
// and it carries every difference between the two protocols.
package appsim

import (
	"bytes"
	"strconv"
	"strings"
	"time"

	"repro/internal/blockdev"
	"repro/internal/cycles"
	"repro/internal/ktls"
	"repro/internal/l5p"
	"repro/internal/netsim"
	"repro/internal/nvmetcp"
	"repro/internal/stream"
	"repro/internal/tcpip"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Format is a request/response wire format and the device layout of the
// objects it serves. A request is reqPrefix, the body size and a '/' when
// sized, the object id, then reqSuffix; a response is respPrefix, the body
// length, end, the body, then trailer.
type Format struct {
	name          string // telemetry prefix of the server, client and latency histogram
	port, tlsPort uint16
	reqPrefix     string
	sized         bool // the request carries the body size
	reqSuffix     string
	end           string // terminates a request and a response header
	respPrefix    string
	trailer       string
	bad, failed   string // responses to a malformed request and to a failed fetch
	base, stride  uint64 // object id's extent starts at LBA base+id*stride
}

// maxHeader bounds a request or a response header, end included; an
// endpoint whose next maxHeader received bytes hold no end closes the
// connection.
const maxHeader = 1 << 10

// HTTP is HTTP/1.1 as wrk asks nginx for a file: `GET /f/<size>/<id>`, a
// Content-Length header, files 16 MiB apart from LBA 0.
var HTTP = &Format{
	name:       "http",
	port:       80,
	tlsPort:    443,
	reqPrefix:  "GET /f/",
	sized:      true,
	reqSuffix:  " HTTP/1.1\r\nHost: sim\r\n\r\n",
	end:        "\r\n\r\n",
	respPrefix: "HTTP/1.1 200 OK\r\nContent-Length: ",
	bad:        "HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n",
	failed:     "HTTP/1.1 500 Internal Server Error\r\nContent-Length: 0\r\n\r\n",
	stride:     16 << 20 / blockdev.BlockSize,
}

// RESP is the Redis-like protocol memtier drives: `GET k<id>` answered by
// `$<n>`, the value and a CRLF. Values are 1 MiB apart from 1 GiB on, the
// OffloadDB layout of §6.2: keys, values and metadata are separated so a
// value is a clean block extent, which is what makes the NIC's direct
// placement applicable. The request names no size; the server's
// ValueSize is every value's.
var RESP = &Format{
	name:       "kv",
	port:       6379,
	tlsPort:    6379,
	reqPrefix:  "GET k",
	reqSuffix:  "\r\n",
	end:        "\r\n",
	respPrefix: "$",
	trailer:    "\r\n",
	bad:        "-ERR\r\n",
	failed:     "-ERR\r\n",
	base:       1 << 30 / blockdev.BlockSize,
	stride:     1 << 20 / blockdev.BlockSize,
}

// String names the format by its telemetry prefix.
func (f *Format) String() string { return f.name }

func (f *Format) portFor(tls bool) uint16 {
	if tls {
		return f.tlsPort
	}
	return f.port
}

// extent is the largest body an object has: its stride in bytes.
func (f *Format) extent() int { return int(f.stride) * blockdev.BlockSize }

// lba is the first block of object id's extent.
func (f *Format) lba(id uint64) uint64 { return f.base + id*f.stride }

// Content fills dst with the bytes of object id from offset off on.
func (f *Format) Content(id uint64, off int, dst []byte) { fill(f.lba(id), off, dst) }

// fill fills dst with the extent at lba from byte offset off on.
func fill(lba uint64, off int, dst []byte) {
	lba += uint64(off / blockdev.BlockSize)
	pos := off % blockdev.BlockSize
	for len(dst) > 0 {
		n := min(blockdev.BlockSize-pos, len(dst))
		blockdev.Pattern(lba, pos, dst[:n])
		dst = dst[n:]
		lba++
		pos = 0
	}
}

func (f *Format) appendRequest(dst []byte, id uint64, size int) []byte {
	dst = append(dst, f.reqPrefix...)
	if f.sized {
		dst = strconv.AppendInt(dst, int64(size), 10)
		dst = append(dst, '/')
	}
	dst = strconv.AppendUint(dst, id, 10)
	return append(dst, f.reqSuffix...)
}

// parseRequest reads a whole request, end included. size is the body size
// of a format whose requests carry none; a size outside (0, extent]
// is refused, whoever chose it.
func (f *Format) parseRequest(req []byte, size int) (id uint64, n int, ok bool) {
	s, ok := strings.CutPrefix(string(req), f.reqPrefix)
	if ok {
		s, ok = strings.CutSuffix(s, f.reqSuffix)
	}
	if ok && f.sized {
		var sz string
		sz, s, ok = strings.Cut(s, "/")
		var err error
		size, err = strconv.Atoi(sz)
		ok = ok && err == nil
	}
	id, err := strconv.ParseUint(s, 10, 64)
	return id, size, ok && err == nil && size > 0 && size <= f.extent()
}

func (f *Format) appendHeader(dst []byte, n int) []byte {
	dst = append(dst, f.respPrefix...)
	dst = strconv.AppendInt(dst, int64(n), 10)
	return append(dst, f.end...)
}

// parseHeader reads a whole response header, end included: the body
// length of a successful response, or false for an error response or
// anything else.
func (f *Format) parseHeader(hdr []byte) (int, bool) {
	s, ok := strings.CutPrefix(string(hdr), f.respPrefix)
	if ok {
		s, ok = strings.CutSuffix(s, f.end)
	}
	n, err := strconv.ParseUint(s, 10, 32)
	if !ok || err != nil || n > uint64(f.extent()) {
		return 0, false
	}
	return int(n), true
}

// Mode selects the server's data path.
type Mode int

// Server modes, matching the four curves of Fig. 13.
const (
	// ModePlain serves plaintext (sendfile, no per-byte host work).
	ModePlain Mode = iota
	// ModeTLS uses software kTLS (AES-NI-style on-CPU crypto).
	ModeTLS
	// ModeTLSOffload adds the TLS transmit/receive NIC offload; sendfile
	// still copies page-cache data into private buffers.
	ModeTLSOffload
	// ModeTLSOffloadZC additionally hands page-cache buffers straight to
	// the NIC (zero-copy sendfile, §5.2).
	ModeTLSOffloadZC
)

// String names the mode as Figs. 13 and 19 label the nginx variants.
func (m Mode) String() string {
	switch m {
	case ModePlain:
		return "http"
	case ModeTLS:
		return "https"
	case ModeTLSOffload:
		return "offload"
	case ModeTLSOffloadZC:
		return "offload+zc"
	}
	return "?"
}

// TLS reports whether the mode encrypts.
func (m Mode) TLS() bool { return m != ModePlain }

// open builds the stream mode asks for over sock. dev is the NIC that
// installs the offload contexts of the offload modes.
func open(sock *tcpip.Socket, mode Mode, cfg ktls.Config, dev l5p.Device) (stream.Stream, error) {
	if !mode.TLS() {
		return stream.NewSocketTransport(sock), nil
	}
	conn, err := ktls.NewConn(sock, cfg)
	if err != nil {
		return nil, err
	}
	if mode == ModeTLSOffload || mode == ModeTLSOffloadZC {
		if err := conn.EnableTxOffload(dev, mode == ModeTLSOffloadZC); err != nil {
			return nil, err
		}
		if err := conn.EnableRxOffload(dev); err != nil {
			return nil, err
		}
	}
	return stream.NewTLSTransport(conn), nil
}

// Store is where the server's objects live.
type Store interface {
	// Fetch reads size bytes of the extent that starts at lba, then calls
	// done. The buffer passed to done is owned by the caller afterwards.
	Fetch(lba uint64, size int, done func(data []byte, err error))
}

// PageCacheStore models C2: every object is resident in the page cache.
type PageCacheStore struct{}

// Fetch implements Store with an immediate, cost-free hit.
func (PageCacheStore) Fetch(lba uint64, size int, done func([]byte, error)) {
	buf := make([]byte, size)
	fill(lba, 0, buf)
	done(buf, nil)
}

// NVMeStore models C1: every fetch reads the object's extent from the
// remote SSD over NVMe-TCP (optionally via the copy+CRC offload configured
// on the host it wraps).
type NVMeStore struct {
	Host *nvmetcp.Host
}

// Fetch implements Store.
func (s *NVMeStore) Fetch(lba uint64, size int, done func([]byte, error)) {
	blocks := (size + blockdev.BlockSize - 1) / blockdev.BlockSize
	buf := make([]byte, blocks*blockdev.BlockSize)
	s.Host.ReadBlocks(lba, blocks, buf, func(err error) {
		if err != nil {
			done(nil, err)
			return
		}
		done(buf[:size], nil)
	})
}

// ServerConfig configures the server.
type ServerConfig struct {
	Format *Format
	Mode   Mode
	TLSCfg ktls.Config
	Store  Store
	// ValueSize is the body size served in a format whose requests carry
	// none (RESP).
	ValueSize int
	// Dev is the NIC for installing offload contexts (offload modes).
	Dev l5p.Device
}

// ServerStats counts server activity.
type ServerStats struct {
	Connections uint64
	Requests    uint64
	BytesServed uint64
	Errors      uint64
}

// Server is the nginx (HTTP) or Redis-on-Flash (RESP) analogue. It listens
// on the format's port for the mode.
type Server struct {
	cfg    ServerConfig
	model  *cycles.Model
	ledger *cycles.Ledger

	// Stats is exported for experiments; treat as read-only.
	Stats ServerStats
}

// NewServer creates and starts a server on the stack.
func NewServer(stack *tcpip.Stack, cfg ServerConfig) *Server {
	s := &Server{cfg: cfg, model: stack.Model(), ledger: stack.Ledger()}
	stack.Listen(cfg.Format.portFor(cfg.Mode.TLS()), s.accept)
	return s
}

// RegisterTelemetry exports the server's counters under "<format>.srv"
// (nil-safe on both sides).
func (s *Server) RegisterTelemetry(reg *telemetry.Registry) {
	if s == nil || reg == nil {
		return
	}
	reg.RegisterCounters(s.cfg.Format.name+".srv", &s.Stats)
}

func (s *Server) accept(sock *tcpip.Socket) {
	s.Stats.Connections++
	tlsCfg := s.cfg.TLSCfg
	tlsCfg.Sendfile = true // the server sends page-cache (or block-layer) buffers
	st, err := open(sock, s.cfg.Mode, tlsCfg, s.cfg.Dev)
	if err != nil {
		s.Stats.Errors++
		return
	}
	s.serve(st)
}

// serve runs the server's side of one connection over st.
func (s *Server) serve(st stream.Stream) {
	c := &serverConn{srv: s, st: st}
	st.SetOnData(c.onData)
	st.SetOnError(func(error) { s.Stats.Errors++ }) // the connection is dead
	st.SetOnDrain(c.pump)
}

type serverConn struct {
	srv    *Server
	st     stream.Stream
	in     []byte // received bytes not yet cut into requests
	outq   [][]byte
	closed bool
}

func (c *serverConn) onData(ch tcpip.Chunk) {
	if c.closed {
		return
	}
	f := c.srv.cfg.Format
	c.in = append(c.in, ch.Data...)
	for {
		i := bytes.Index(c.in[:min(len(c.in), maxHeader)], []byte(f.end))
		if i < 0 {
			if len(c.in) >= maxHeader {
				// No request is this long: the peer is not speaking the format.
				c.srv.Stats.Errors++
				c.closed = true
				c.st.Close()
			}
			return
		}
		req := c.in[:i+len(f.end)]
		c.in = c.in[len(req):]
		c.handle(req)
	}
}

// handle serves one request, end included.
func (c *serverConn) handle(req []byte) {
	s := c.srv
	s.ledger.Charge(cycles.HostApp, cycles.AppWork, s.model.AppPerRequest, 0)
	s.ledger.Charge(cycles.HostApp, cycles.Syscall, s.model.SyscallCost, 0)

	f := s.cfg.Format
	id, size, ok := f.parseRequest(req, s.cfg.ValueSize)
	if !ok {
		s.Stats.Errors++
		c.send([]byte(f.bad))
		return
	}
	s.cfg.Store.Fetch(f.lba(id), size, func(data []byte, err error) {
		if err != nil {
			s.Stats.Errors++
			c.send([]byte(f.failed))
			return
		}
		s.Stats.Requests++
		s.Stats.BytesServed += uint64(len(data))
		resp := f.appendHeader(make([]byte, 0, 64+len(data)), len(data)) // 64: room for header and trailer
		resp = append(resp, data...)
		c.send(append(resp, f.trailer...))
	})
}

func (c *serverConn) send(p []byte) {
	c.outq = append(c.outq, p)
	c.pump()
}

func (c *serverConn) pump() {
	for len(c.outq) > 0 {
		head := c.outq[0]
		n := c.st.WriteZC(head)
		if n < len(head) {
			c.outq[0] = head[n:]
			return
		}
		c.outq = c.outq[1:]
	}
}

// ClientConfig configures the load generator.
type ClientConfig struct {
	Format *Format
	// TLS selects an encrypted connection (software kTLS on the client;
	// the generator machine's cycles are not the measured quantity).
	TLS    bool
	TLSCfg ktls.Config
	// Server is the server's address; the port follows from the format
	// and TLS.
	Server [4]byte
	// Connections is the number of persistent connections.
	Connections int
	// FileSize is the body size a request asks for, in a format whose
	// requests carry one (HTTP).
	FileSize int
	// Objects is the number of distinct object ids cycled through
	// (default 1).
	Objects int
}

// ClientStats aggregates load-generator results. Every field is a
// uint64 counter, the only field kind the telemetry registry accepts in
// a counter struct; the round-trip accumulator lives on Client directly.
type ClientStats struct {
	// Responses and Bytes count well-framed responses whose every body
	// byte matched the object's content.
	Responses uint64
	Bytes     uint64
	// Errors counts error responses, responses that do not frame, short
	// request writes and dead connections.
	Errors uint64
	// VerifyFails counts responses with a wrong byte after the header: one
	// that differs from the object's content or the format's trailer.
	VerifyFails uint64
}

// Client is the wrk (HTTP) or memtier (RESP) analogue: persistent
// connections, each with one request outstanding.
type Client struct {
	sim     *netsim.Simulator
	cfg     ClientConfig
	latency *telemetry.Histogram
	scratch []byte // expected body bytes, reused by every check

	// Stats is exported for experiments; treat as read-only.
	Stats ClientStats
	// TotalRTT sums the round trips of the responses Stats counts. It is
	// a duration, not a counter, so it sits outside Stats (the registry
	// cannot merge time.Duration); treat as read-only.
	TotalRTT time.Duration
}

// NewClient creates the generator and opens its connections.
func NewClient(stack *tcpip.Stack, cfg ClientConfig) *Client {
	if cfg.Objects <= 0 {
		cfg.Objects = 1
	}
	c := &Client{sim: stack.Sim(), cfg: cfg}
	mode := ModePlain
	if cfg.TLS {
		mode = ModeTLS
	}
	for i := 0; i < cfg.Connections; i++ {
		i := uint64(i)
		stack.Connect(wire.Addr{IP: cfg.Server, Port: cfg.Format.portFor(cfg.TLS)}, func(sock *tcpip.Socket) {
			st, err := open(sock, mode, cfg.TLSCfg, nil)
			if err != nil {
				c.Stats.Errors++
				return
			}
			c.serve(st, i)
		})
	}
	return c
}

// RegisterTelemetry exports the client's counters under "<format>.cli"
// and feeds every counted round trip, in nanoseconds, to the
// "<format>.request_latency_ns" histogram (nil-safe on both sides).
func (c *Client) RegisterTelemetry(reg *telemetry.Registry) {
	if c == nil || reg == nil {
		return
	}
	reg.RegisterCounters(c.cfg.Format.name+".cli", &c.Stats)
	c.latency = reg.Histogram(c.cfg.Format.name + ".request_latency_ns")
}

// serve runs connection number conn over st and issues its first request.
func (c *Client) serve(st stream.Stream, conn uint64) {
	cc := &clientConn{cli: c, st: st, conn: conn}
	st.SetOnData(cc.onData)
	st.SetOnError(func(error) { c.Stats.Errors++ }) // the connection is dead
	st.SetOnDrain(func() {})
	cc.next()
}

type clientConn struct {
	cli  *Client
	st   stream.Stream
	conn uint64 // connection number: the first object id it asks for
	sent uint64 // requests issued

	id     uint64 // object the outstanding request asks for
	issued time.Duration
	req    []byte // request bytes, reused
	hdr    []byte // response header received so far
	want   int    // body length; -1 while the header is incomplete
	pos    int    // body and trailer bytes received
	wrong  bool   // one of them differed from what the response must carry
	closed bool
}

func (c *clientConn) next() {
	cli := c.cli
	c.id = (c.conn + c.sent) % uint64(cli.cfg.Objects)
	c.sent++
	c.issued = cli.sim.Now()
	c.want, c.pos, c.wrong = -1, 0, false
	c.req = cli.cfg.Format.appendRequest(c.req[:0], c.id, cli.cfg.FileSize)
	if n := c.st.Write(c.req); n < len(c.req) {
		cli.Stats.Errors++
	}
}

func (c *clientConn) onData(ch tcpip.Chunk) {
	trailer := len(c.cli.cfg.Format.trailer)
	data := ch.Data
	for len(data) > 0 && !c.closed {
		if c.want < 0 {
			data = c.readHeader(data)
		} else {
			data = c.readBody(data)
		}
		if c.want >= 0 && c.pos == c.want+trailer {
			c.finish()
		}
	}
}

// readHeader collects response header bytes from data and returns what
// follows the header.
func (c *clientConn) readHeader(data []byte) []byte {
	f := c.cli.cfg.Format
	had := len(c.hdr)
	c.hdr = append(c.hdr, data[:min(len(data), maxHeader-had)]...)
	i := bytes.Index(c.hdr, []byte(f.end))
	if i < 0 {
		if len(c.hdr) == maxHeader {
			// No header is this long: the peer is not speaking the format.
			c.cli.Stats.Errors++
			c.closed = true
			c.st.Close()
		}
		return nil
	}
	n := i + len(f.end)
	want, ok := f.parseHeader(c.hdr[:n])
	c.hdr = c.hdr[:0]
	if !ok {
		c.cli.Stats.Errors++
		c.next()
	} else {
		c.want, c.pos = want, 0
	}
	return data[n-had:]
}

// readBody checks the body and trailer bytes in data against the object's
// content and the format's trailer, and returns what follows the response.
func (c *clientConn) readBody(data []byte) []byte {
	cli := c.cli
	f := cli.cfg.Format
	n := min(len(data), c.want+len(f.trailer)-c.pos)
	if !c.wrong {
		if cap(cli.scratch) < n {
			cli.scratch = make([]byte, n)
		}
		want := cli.scratch[:n]
		body := max(0, min(n, c.want-c.pos))
		f.Content(c.id, c.pos, want[:body])
		copy(want[body:], f.trailer[max(0, c.pos-c.want):])
		c.wrong = !bytes.Equal(data[:n], want)
	}
	c.pos += n
	return data[n:]
}

func (c *clientConn) finish() {
	cli := c.cli
	if c.wrong {
		cli.Stats.VerifyFails++
	} else {
		cli.Stats.Responses++
		cli.Stats.Bytes += uint64(c.want)
		rtt := cli.sim.Now() - c.issued
		cli.TotalRTT += rtt
		cli.latency.Record(int64(rtt))
	}
	c.next()
}
