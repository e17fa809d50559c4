// Package httpsim provides the macrobenchmark applications of the paper's
// §6.3: an nginx-like static file server and a wrk-like load generator,
// running over the simulated TCP stack in four modes — plain http, https
// with software kTLS, https with the TLS NIC offload, and https with the
// offload plus zero-copy sendfile (§5.2).
//
// Files are addressed by size and id; content is deterministic. The server
// fetches them either from a page-cache model (the paper's C2
// configuration: all data resident, no storage traffic) or through
// NVMe-TCP from the remote simulated SSD (C1: nothing cached, every
// request hits the drive).
package httpsim

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/blockdev"
	"repro/internal/cycles"
	"repro/internal/ktls"
	"repro/internal/l5p"
	"repro/internal/nvmetcp"
	"repro/internal/stream"
	"repro/internal/tcpip"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Mode selects the server's data path.
type Mode int

// Server modes, matching the four curves of Fig. 13.
const (
	// ModeHTTP serves plaintext (sendfile, no per-byte host work).
	ModeHTTP Mode = iota
	// ModeHTTPS uses software kTLS (AES-NI-style on-CPU crypto).
	ModeHTTPS
	// ModeHTTPSOffload adds the TLS transmit/receive NIC offload; sendfile
	// still copies page-cache data into private buffers.
	ModeHTTPSOffload
	// ModeHTTPSOffloadZC additionally hands page-cache buffers straight to
	// the NIC (zero-copy sendfile, §5.2).
	ModeHTTPSOffloadZC
)

// String names the mode as the paper's figures do.
func (m Mode) String() string {
	switch m {
	case ModeHTTP:
		return "http"
	case ModeHTTPS:
		return "https"
	case ModeHTTPSOffload:
		return "offload"
	case ModeHTTPSOffloadZC:
		return "offload+zc"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// TLS reports whether the mode encrypts.
func (m Mode) TLS() bool { return m != ModeHTTP }

// FileContent fills dst with the deterministic content of file id at the
// given byte offset (shared by the page cache, the SSD mapping, and test
// verification).
func FileContent(id uint64, off int, dst []byte) {
	lba := fileBaseLBA(id) + uint64(off/blockdev.BlockSize)
	pos := off % blockdev.BlockSize
	for len(dst) > 0 {
		n := blockdev.BlockSize - pos
		if n > len(dst) {
			n = len(dst)
		}
		blockdev.Pattern(lba, pos, dst[:n])
		dst = dst[n:]
		lba++
		pos = 0
	}
}

// fileBaseLBA maps a file id to its LBA extent on the simulated SSD
// (files are laid out contiguously, 16 MiB apart).
func fileBaseLBA(id uint64) uint64 { return id * (16 << 20 / blockdev.BlockSize) }

// FileStore abstracts where the server's file bytes come from.
type FileStore interface {
	// Fetch retrieves size bytes of file id, then calls done. The buffer
	// passed to done is owned by the caller afterwards.
	Fetch(id uint64, size int, done func(data []byte, err error))
}

// PageCacheStore models C2: every file is resident in the page cache.
type PageCacheStore struct{}

// Fetch implements FileStore with an immediate, cost-free hit.
func (PageCacheStore) Fetch(id uint64, size int, done func([]byte, error)) {
	buf := make([]byte, size)
	FileContent(id, 0, buf)
	done(buf, nil)
}

// NVMeStore models C1: every fetch reads the file's extent from the remote
// SSD over NVMe-TCP (optionally via the copy+CRC offload configured on the
// host it wraps).
type NVMeStore struct {
	Host *nvmetcp.Host
}

// Fetch implements FileStore.
func (s *NVMeStore) Fetch(id uint64, size int, done func([]byte, error)) {
	blocks := (size + blockdev.BlockSize - 1) / blockdev.BlockSize
	buf := make([]byte, blocks*blockdev.BlockSize)
	s.Host.ReadBlocks(fileBaseLBA(id), blocks, buf, func(err error) {
		if err != nil {
			done(nil, err)
			return
		}
		done(buf[:size], nil)
	})
}

// ServerConfig configures the file server.
type ServerConfig struct {
	Mode   Mode
	TLSCfg ktls.Config
	Store  FileStore
	// Dev is the NIC for installing offload contexts (offload modes).
	Dev l5p.Device
	// Port defaults to 443 for TLS modes and 80 otherwise.
	Port uint16
}

// ServerStats counts server activity.
type ServerStats struct {
	Connections uint64
	Requests    uint64
	BytesServed uint64
	Errors      uint64
}

// Server is the nginx analogue.
type Server struct {
	stack  *tcpip.Stack
	cfg    ServerConfig
	model  *cycles.Model
	ledger *cycles.Ledger

	// Stats is exported for experiments; treat as read-only.
	Stats ServerStats
}

// NewServer creates and starts a file server on the stack.
func NewServer(stack *tcpip.Stack, cfg ServerConfig) *Server {
	if cfg.Port == 0 {
		if cfg.Mode.TLS() {
			cfg.Port = 443
		} else {
			cfg.Port = 80
		}
	}
	s := &Server{stack: stack, cfg: cfg, model: stack.Model(), ledger: stack.Ledger()}
	stack.Listen(cfg.Port, s.accept)
	return s
}

// RegisterTelemetry exports the server's counters under prefix (nil-safe
// on both sides).
func (s *Server) RegisterTelemetry(reg *telemetry.Registry, prefix string) {
	if s == nil || reg == nil {
		return
	}
	reg.RegisterCounters(prefix, &s.Stats)
}

func (s *Server) accept(sock *tcpip.Socket) {
	s.Stats.Connections++
	st, err := s.wrap(sock)
	if err != nil {
		s.Stats.Errors++
		return
	}
	c := &serverConn{srv: s, st: st}
	st.SetOnData(c.onData)
	st.SetOnError(func(error) { s.Stats.Errors++ }) // the connection is dead
	st.SetOnDrain(c.pump)
}

// wrap builds the mode-appropriate stream over the accepted socket.
func (s *Server) wrap(sock *tcpip.Socket) (stream.Stream, error) {
	if !s.cfg.Mode.TLS() {
		return stream.NewSocketTransport(sock), nil
	}
	tlsCfg := s.cfg.TLSCfg
	tlsCfg.Sendfile = true // nginx serves page-cache (or block-layer) buffers
	conn, err := ktls.NewConn(sock, tlsCfg)
	if err != nil {
		return nil, err
	}
	switch s.cfg.Mode {
	case ModeHTTPSOffload:
		if err := conn.EnableTxOffload(s.cfg.Dev, false); err != nil {
			return nil, err
		}
		if err := conn.EnableRxOffload(s.cfg.Dev); err != nil {
			return nil, err
		}
	case ModeHTTPSOffloadZC:
		if err := conn.EnableTxOffload(s.cfg.Dev, true); err != nil {
			return nil, err
		}
		if err := conn.EnableRxOffload(s.cfg.Dev); err != nil {
			return nil, err
		}
	}
	return stream.NewTLSTransport(conn), nil
}

type serverConn struct {
	srv  *Server
	st   stream.Stream
	line []byte
	outq [][]byte
}

func (c *serverConn) onData(ch tcpip.Chunk) {
	c.line = append(c.line, ch.Data...)
	for {
		idx := strings.Index(string(c.line), "\r\n\r\n")
		if idx < 0 {
			return
		}
		req := string(c.line[:idx])
		c.line = c.line[idx+4:]
		c.handle(req)
	}
}

// handle parses "GET /f/<size>/<id> HTTP/1.1" and serves the file.
func (c *serverConn) handle(req string) {
	s := c.srv
	s.ledger.Charge(cycles.HostApp, cycles.AppWork, s.model.AppPerRequest, 0)
	s.ledger.Charge(cycles.HostApp, cycles.Syscall, s.model.SyscallCost, 0)

	fields := strings.Fields(req)
	var id uint64
	var size int
	bad := true
	if len(fields) >= 2 && strings.HasPrefix(fields[1], "/f/") {
		parts := strings.Split(fields[1][3:], "/")
		if len(parts) == 2 {
			if sz, err := strconv.Atoi(parts[0]); err == nil {
				if fid, err := strconv.ParseUint(parts[1], 10, 64); err == nil {
					size, id, bad = sz, fid, false
				}
			}
		}
	}
	if bad {
		s.Stats.Errors++
		c.send([]byte("HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n"))
		return
	}
	s.cfg.Store.Fetch(id, size, func(data []byte, err error) {
		if err != nil {
			s.Stats.Errors++
			c.send([]byte("HTTP/1.1 500 Internal Server Error\r\nContent-Length: 0\r\n\r\n"))
			return
		}
		s.Stats.Requests++
		s.Stats.BytesServed += uint64(len(data))
		hdr := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", len(data))
		c.send(append([]byte(hdr), data...))
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

// ClientConfig configures the wrk-like load generator.
type ClientConfig struct {
	// TLS selects an encrypted connection (software kTLS on the client;
	// the generator machine's cycles are not the measured quantity).
	TLS    bool
	TLSCfg ktls.Config
	// Server is the target address.
	Server wire.Addr
	// Connections is the number of persistent connections.
	Connections int
	// FileSize is the requested file size in bytes.
	FileSize int
	// Files is the number of distinct file ids cycled through (default 1).
	Files int
	// Verify checks response payloads against the expected file content.
	Verify bool
	// Latency, when non-nil, receives each request's round trip in
	// nanoseconds (telemetry histogram; Record is nil-safe).
	Latency *telemetry.Histogram
}

// ClientStats aggregates load-generator results. Every field is a
// uint64 counter so the telemetry registry's reflective flattener can
// export it (statsreg invariant); round-trip accumulators live on
// Client directly.
type ClientStats struct {
	Responses   uint64
	Bytes       uint64
	Errors      uint64
	VerifyFails uint64
}

// Client is the wrk analogue.
type Client struct {
	stack *tcpip.Stack
	cfg   ClientConfig

	// Stats is exported for experiments; treat as read-only.
	Stats ClientStats
	// TotalRTT sums per-request round trips and MaxRTT tracks the worst
	// one. They are durations, not counters, so they sit outside Stats
	// (the registry cannot merge time.Duration); treat as read-only.
	TotalRTT time.Duration
	MaxRTT   time.Duration
}

// NewClient creates the generator and opens its connections.
func NewClient(stack *tcpip.Stack, cfg ClientConfig) *Client {
	if cfg.Files <= 0 {
		cfg.Files = 1
	}
	c := &Client{stack: stack, cfg: cfg}
	for i := 0; i < cfg.Connections; i++ {
		i := i
		stack.Connect(cfg.Server, func(sock *tcpip.Socket) {
			c.startConn(sock, uint64(i))
		})
	}
	return c
}

// RegisterTelemetry exports the client's counters under prefix (nil-safe
// on both sides).
func (c *Client) RegisterTelemetry(reg *telemetry.Registry, prefix string) {
	if c == nil || reg == nil {
		return
	}
	reg.RegisterCounters(prefix, &c.Stats)
}

func (c *Client) startConn(sock *tcpip.Socket, connID uint64) {
	var st stream.Stream
	if c.cfg.TLS {
		conn, err := ktls.NewConn(sock, c.cfg.TLSCfg)
		if err != nil {
			c.Stats.Errors++
			return
		}
		st = stream.NewTLSTransport(conn)
	} else {
		st = stream.NewSocketTransport(sock)
	}
	cc := &clientConn{cli: c, st: st, id: connID}
	st.SetOnData(cc.onData)
	st.SetOnError(func(error) { c.Stats.Errors++ }) // the connection is dead
	st.SetOnDrain(func() {})
	cc.nextRequest()
}

type clientConn struct {
	cli *Client
	st  stream.Stream
	id  uint64

	fileID    uint64
	expect    int // body bytes outstanding
	bodyPos   int
	hdrBuf    []byte
	inBody    bool
	issuedAt  time.Duration
	reqCount  uint64
	verifyBuf []byte
}

func (c *clientConn) nextRequest() {
	c.fileID = (c.id + c.reqCount) % uint64(c.cli.cfg.Files)
	c.reqCount++
	c.issuedAt = c.cli.stack.Sim().Now()
	req := fmt.Sprintf("GET /f/%d/%d HTTP/1.1\r\nHost: sim\r\n\r\n",
		c.cli.cfg.FileSize, c.fileID)
	c.hdrBuf = c.hdrBuf[:0]
	c.inBody = false
	c.bodyPos = 0
	if c.cli.cfg.Verify {
		c.verifyBuf = c.verifyBuf[:0]
	}
	if n := c.st.Write([]byte(req)); n < len(req) {
		c.cli.Stats.Errors++
	}
}

func (c *clientConn) onData(ch tcpip.Chunk) {
	data := ch.Data
	for len(data) > 0 {
		if !c.inBody {
			c.hdrBuf = append(c.hdrBuf, data...)
			data = nil
			idx := strings.Index(string(c.hdrBuf), "\r\n\r\n")
			if idx < 0 {
				return
			}
			hdr := string(c.hdrBuf[:idx])
			rest := c.hdrBuf[idx+4:]
			c.expect = contentLength(hdr)
			c.inBody = true
			c.bodyPos = 0
			data = rest
			if c.expect == 0 {
				c.finish()
			}
			continue
		}
		n := c.expect - c.bodyPos
		if n > len(data) {
			n = len(data)
		}
		if c.cli.cfg.Verify {
			c.verifyBuf = append(c.verifyBuf, data[:n]...)
		}
		c.bodyPos += n
		data = data[n:]
		if c.bodyPos == c.expect {
			c.finish()
		}
	}
}

func (c *clientConn) finish() {
	cli := c.cli
	cli.Stats.Responses++
	cli.Stats.Bytes += uint64(c.expect)
	rtt := cli.stack.Sim().Now() - c.issuedAt
	cli.TotalRTT += rtt
	cli.cfg.Latency.Record(int64(rtt))
	if rtt > cli.MaxRTT {
		cli.MaxRTT = rtt
	}
	if cli.cfg.Verify {
		want := make([]byte, len(c.verifyBuf))
		FileContent(c.fileID, 0, want)
		if string(want) != string(c.verifyBuf) {
			cli.Stats.VerifyFails++
		}
	}
	c.nextRequest()
}

func contentLength(hdr string) int {
	for _, line := range strings.Split(hdr, "\r\n") {
		if strings.HasPrefix(strings.ToLower(line), "content-length:") {
			v := strings.TrimSpace(line[len("content-length:"):])
			n, err := strconv.Atoi(v)
			if err == nil {
				return n
			}
		}
	}
	return 0
}
