package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"resultdb/internal/db"
	"resultdb/internal/parallel"
	"resultdb/internal/trace"
)

// Frame types of the protocol. A connection is a sequence of frames in both
// directions, and every frame is a 1-byte type, a 4-byte big-endian payload
// length, the payload, and a 4-byte big-endian CRC32-IEEE trailer over the
// header and payload, so a flipped bit anywhere surfaces as a typed checksum
// error instead of silently wrong data.
//
// The client sends frameQuery; the server answers with the result's v2
// payload as frameChunk frames terminated by a frameEnd. The concatenated
// chunk payloads are byte-identical to EncodeResultOptions' v2 encoding of
// the result, and that concatenation is the whole contract: where chunks
// begin and end, and how many of them share a TCP segment, is the server's
// choice (clients append until frameEnd). This server executes the
// statement first, then gathers a header chunk, one chunk per relation and
// one for the post-join plan, and frameEnd, and writes the whole response in
// one Write; one chunk per relation lets a cached relation go out as a copy
// of the bytes its result keeps. A frameErr may replace the response or
// interrupt a chunk stream at any point (the client discards the partial
// buffer). Type values 2 and 4 belonged to retired frames and stay unused.
const (
	frameQuery byte = 1 // client -> server: SQL text
	frameErr   byte = 3 // server -> client: error text
	frameChunk byte = 5 // server -> client: partial encoded Result
	frameEnd   byte = 6 // server -> client: end of a response
)

const maxFrame = 1 << 30

// errFrameTooLarge marks an oversized inbound frame. The header has been
// consumed but the payload has not, so the stream cannot be resynchronized:
// the server answers frameErr and drops the connection instead of silently
// dying.
var errFrameTooLarge = errors.New("wire: frame exceeds size limit")

// errChecksum marks a frame whose CRC32 trailer did not match its contents.
// The frame arrived whole — the stream is still synchronized — but its bytes
// cannot be trusted.
var errChecksum = errors.New("wire: frame checksum mismatch")

// errUnexpectedFrame marks an inbound frame of a type the server does not
// accept. It is detected from the header alone, before the payload is read:
// a peer speaking another protocol — one that opens with a handshake frame
// and sends no trailer, say — gets its answer instead of waiting for a reply
// while the server waits for a trailer.
var errUnexpectedFrame = errors.New("unexpected frame type")

// appendFrame appends one frame — header, payload and CRC32-IEEE trailer
// over both — to dst.
func appendFrame(dst []byte, typ byte, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, typ, 0, 0, 0, 0)
	dst = append(dst, payload...)
	return sealFrame(dst, start)
}

// sealFrame completes the frame that begins at dst[start] and runs to the
// end of dst: it writes the payload length into the header and appends the
// trailer.
func sealFrame(dst []byte, start int) []byte {
	binary.BigEndian.PutUint32(dst[start+1:], uint32(len(dst)-start-5))
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// checkFrame verifies a frame's CRC32 trailer against its header and
// payload. A mismatch returns errChecksum (wrapped); the frame has been read
// whole, so the stream stays synchronized.
func checkFrame(hdr, payload []byte, trailer uint32) error {
	sum := crc32.Update(crc32.ChecksumIEEE(hdr), crc32.IEEETable, payload)
	if trailer != sum {
		return fmt.Errorf("%w (frame type %d, %d bytes, got %08x want %08x)",
			errChecksum, hdr[0], len(payload), trailer, sum)
	}
	return nil
}

// readFrameHeader reads a frame's type and length. A length over the limit
// returns errFrameTooLarge (wrapped) with the payload unread.
func readFrameHeader(r io.Reader) ([5]byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return hdr, err
	}
	_, err := frameLen(hdr[:])
	return hdr, err
}

// frameLen returns the payload length a frame header claims, or
// errFrameTooLarge (wrapped) when the claim is over the limit.
func frameLen(hdr []byte) (int, error) {
	n := binary.BigEndian.Uint32(hdr[1:5])
	if n > maxFrame {
		return 0, fmt.Errorf("%w (%d bytes > %d)", errFrameTooLarge, n, maxFrame)
	}
	return int(n), nil
}

// readFrameBody reads the payload and trailer of the frame whose header is
// hdr and verifies the checksum.
func readFrameBody(r io.Reader, hdr [5]byte) ([]byte, error) {
	n := binary.BigEndian.Uint32(hdr[1:])
	payload, err := readPayload(r, int(n))
	if err != nil {
		return nil, err
	}
	var trailer [4]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return nil, err
	}
	if err := checkFrame(hdr[:], payload, binary.BigEndian.Uint32(trailer[:])); err != nil {
		return nil, err
	}
	return payload, nil
}

// readQuery reads the next query frame, checking its type from the header
// before any of its payload is read.
func readQuery(r io.Reader) (string, error) {
	hdr, err := readFrameHeader(r)
	if err != nil {
		return "", err
	}
	if hdr[0] != frameQuery {
		return "", fmt.Errorf("%w %d", errUnexpectedFrame, hdr[0])
	}
	payload, err := readFrameBody(r, hdr)
	return string(payload), err
}

// payloadReadStep is the first allocation readPayload makes for a frame that
// claims more than this.
const payloadReadStep = 64 << 10

// readPayload reads an n-byte frame payload. The length is the peer's claim
// and arrives before any of the bytes it promises, so the buffer starts at
// payloadReadStep and doubles only as it fills: memory held stays within
// a small multiple of the bytes actually received plus one step, whatever a
// five-byte header says.
func readPayload(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, min(n, payloadReadStep))
	read := 0
	for {
		m, err := io.ReadFull(r, buf[read:])
		read += m
		if err != nil {
			return nil, err
		}
		if read == n {
			return buf, nil
		}
		grown := make([]byte, min(n, 2*len(buf)))
		copy(grown, buf)
		buf = grown
	}
}

// serverStats is the server's atomic counter block; ServerStats is its
// exported snapshot.
type serverStats struct {
	accepted          atomic.Int64
	queries           atomic.Int64
	queryErrors       atomic.Int64
	panics            atomic.Int64
	writeStalls       atomic.Int64
	oversizedFrames   atomic.Int64
	checksumFailures  atomic.Int64
	drained           atomic.Int64
	backpressureWaits atomic.Int64
}

// ServerStats is a point-in-time snapshot of the server's operational
// counters, for overload and fault diagnosis.
type ServerStats struct {
	// Accepted counts connections accepted over the server's lifetime.
	Accepted int64 `json:"accepted"`
	// Queries counts statements executed (including failing ones).
	Queries int64 `json:"queries"`
	// QueryErrors counts statements that returned an error.
	QueryErrors int64 `json:"query_errors"`
	// Panics counts the panics of statement execution or encoding, each
	// confined to its connection.
	Panics int64 `json:"panics"`
	// WriteStalls counts connections shed because a response write missed
	// the WriteTimeout — a slow or stuck client reader.
	WriteStalls int64 `json:"write_stalls"`
	// OversizedFrames counts inbound frames rejected for exceeding the
	// frame size limit.
	OversizedFrames int64 `json:"oversized_frames"`
	// ChecksumFailures counts inbound frames whose CRC32 trailer did not
	// match.
	ChecksumFailures int64 `json:"checksum_failures"`
	// Drained counts connections that exited via graceful drain.
	Drained int64 `json:"drained"`
	// BackpressureWaits counts accepts that had to wait for a MaxConns
	// slot — sustained growth means the server is saturated.
	BackpressureWaits int64 `json:"backpressure_waits"`
}

// Trace renders the counters as a trace — one "counter" span each — so the
// server's operational state reuses the EXPLAIN ANALYZE rendering path
// (trace.CompactLines / trace.TreeLines).
func (st ServerStats) Trace() *trace.Trace {
	return (&trace.Trace{Mode: "server-stats"}).AddCounts("server",
		trace.Count{Name: "conns_accepted", Value: st.Accepted},
		trace.Count{Name: "queries", Value: st.Queries},
		trace.Count{Name: "query_errors", Value: st.QueryErrors},
		trace.Count{Name: "panics", Value: st.Panics},
		trace.Count{Name: "write_stalls", Value: st.WriteStalls},
		trace.Count{Name: "oversized_frames", Value: st.OversizedFrames},
		trace.Count{Name: "checksum_failures", Value: st.ChecksumFailures},
		trace.Count{Name: "conns_drained", Value: st.Drained},
		trace.Count{Name: "backpressure_waits", Value: st.BackpressureWaits},
	)
}

// Server exposes a Database over TCP: every connection reads query frames
// and answers each with the result's v2 payload as a chunk stream, in
// CRC-checked frames (see the frame types above). Configure the hardening
// knobs before Listen; they are not safe to change while serving.
type Server struct {
	db *db.Database

	// ReadTimeout bounds how long a connection may sit idle (or dribble one
	// frame) before the server drops it; zero means no deadline. The
	// deadline is re-armed before every frame read, so a busy connection
	// lives forever and an abandoned one is reaped.
	ReadTimeout time.Duration
	// WriteTimeout bounds writing one response, which leaves in one Write:
	// the deadline is armed once per response, before that Write. Zero means
	// none. A write that misses it sheds the connection (a stuck client
	// reader must not pin a server goroutine and its response buffer
	// forever) and counts as a write stall in Stats.
	WriteTimeout time.Duration
	// MaxConns caps concurrently served connections (0 = unlimited). The
	// accept loop blocks once the cap is reached, leaving excess dials in
	// the kernel backlog until a slot frees — clients see latency, not
	// errors, under overload. Waits are counted in Stats.
	MaxConns int
	// ListenFunc overrides how Listen binds the socket — the fault-injection
	// hook (wrap the listener with faultnet) and test seam. nil means
	// net.Listen.
	ListenFunc func(network, addr string) (net.Listener, error)

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup

	active   atomic.Int64
	draining atomic.Bool
	stats    serverStats
}

// NewServer wraps a database.
func NewServer(d *db.Database) *Server { return &Server{db: d} }

// ActiveConns reports the number of connections currently being served.
func (s *Server) ActiveConns() int { return int(s.active.Load()) }

// Stats snapshots the server's operational counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Accepted:          s.stats.accepted.Load(),
		Queries:           s.stats.queries.Load(),
		QueryErrors:       s.stats.queryErrors.Load(),
		Panics:            s.stats.panics.Load(),
		WriteStalls:       s.stats.writeStalls.Load(),
		OversizedFrames:   s.stats.oversizedFrames.Load(),
		ChecksumFailures:  s.stats.checksumFailures.Load(),
		Drained:           s.stats.drained.Load(),
		BackpressureWaits: s.stats.backpressureWaits.Load(),
	}
}

// Listen binds addr ("host:port"; ":0" picks a free port) and starts
// serving in the background. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	listen := s.ListenFunc
	if listen == nil {
		listen = net.Listen
	}
	ln, err := listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.ln = ln
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.mu.Unlock()
	var sem chan struct{}
	if s.MaxConns > 0 {
		sem = make(chan struct{}, s.MaxConns)
	}
	s.wg.Add(1)
	go s.acceptLoop(ln, sem)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener, sem chan struct{}) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // closed
		}
		if sem != nil {
			select {
			case sem <- struct{}{}:
			default:
				// Saturated: record the overload signal, then block
				// accepting beyond MaxConns as before.
				s.stats.backpressureWaits.Add(1)
				sem <- struct{}{}
			}
		}
		if s.draining.Load() {
			// Shutdown raced the accept: refuse the connection rather than
			// start work the drain would have to wait for.
			conn.Close()
			if sem != nil {
				<-sem
			}
			continue
		}
		s.stats.accepted.Add(1)
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		s.active.Add(1)
		go func() {
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				s.active.Add(-1)
				if sem != nil {
					<-sem
				}
				s.wg.Done()
			}()
			s.serveConn(conn)
		}()
	}
}

// isTimeout reports whether err is a deadline miss.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		// Belt and braces: a panic anywhere in the connection loop (outside
		// the per-statement recover) kills this connection only.
		if p := recover(); p != nil {
			s.stats.panics.Add(1)
		}
		conn.Close()
	}()
	r := bufio.NewReader(conn)
	// Each connection gets its own session: statements on this connection see
	// their own completed writes immediately (the session re-pins after every
	// mutation) and execute against one consistent MVCC snapshot each, never
	// blocking on — or observing half of — another connection's writes.
	sess := s.db.NewSession()
	var resp response
	// send writes the response gathered in resp to the socket in one Write,
	// under one write deadline, and empties resp for the next.
	send := func() error {
		if s.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout))
		}
		_, err := conn.Write(resp.buf)
		resp.buf = keep(resp.buf)
		if isTimeout(err) {
			s.stats.writeStalls.Add(1)
		}
		return err
	}
	// reply answers with one frame.
	reply := func(typ byte, payload []byte) error {
		resp.frame(typ, payload)
		return send()
	}
	for {
		if s.draining.Load() {
			s.stats.drained.Add(1)
			return // in-flight response finished; refuse further queries
		}
		if s.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.ReadTimeout))
		}
		sql, err := readQuery(r)
		if err != nil {
			switch {
			case errors.Is(err, errFrameTooLarge):
				// Answer before dropping: the stream cannot be resynced past
				// an unread oversized payload, but the client deserves to
				// know why the connection is going away.
				s.stats.oversizedFrames.Add(1)
				reply(frameErr, []byte(err.Error()))
			case errors.Is(err, errChecksum):
				// The frame arrived whole but its bytes cannot be trusted —
				// possibly a corrupted query that would execute as a
				// different statement. Report and shed the connection; the
				// link is unreliable.
				s.stats.checksumFailures.Add(1)
				reply(frameErr, []byte(err.Error()))
			case errors.Is(err, errUnexpectedFrame):
				// Answered from the header: the payload and whatever
				// follows it are never read.
				reply(frameErr, []byte(err.Error()))
			}
			if s.draining.Load() {
				s.stats.drained.Add(1)
			}
			return // client gone, idle timeout, or poisoned stream
		}
		s.stats.queries.Add(1)
		s.serveStatement(sess, sql, &resp)
		if send() != nil {
			return
		}
	}
}

// response gathers one response's frames so that they leave the server in
// one Write. A connection keeps its response buffer from one response to
// the next, unless a response grew it past maxKeptBytes.
type response struct{ buf []byte }

// frame appends one frame.
func (r *response) frame(typ byte, payload []byte) { r.buf = appendFrame(r.buf, typ, payload) }

// chunk appends one frameChunk whose payload encode writes in place. A
// panic in encode leaves the frames before it as they were.
func (r *response) chunk(encode func(*Encoder)) {
	start := len(r.buf)
	e := Encoder{buf: append(r.buf, frameChunk, 0, 0, 0, 0)}
	encode(&e)
	r.buf = sealFrame(e.buf, start)
}

// keep returns b emptied for reuse, or nil once it has grown past
// maxKeptBytes.
func keep(b []byte) []byte {
	if cap(b) > maxKeptBytes {
		return nil
	}
	return b[:0]
}

// serveStatement answers one query into resp: it executes the statement,
// then appends the result's v2 payload as chunks (writeResult) and
// frameEnd, all on this goroutine; the caller writes resp to the socket in
// one Write. Only the concatenation of the chunk payloads is protocol;
// where the boundaries fall is the server's business.
//
// Execution and encoding run with panics confined to the connection: a
// panic becomes a statement error (terminal for the client — a
// deterministic panic would just repeat) instead of a dead server. A
// failed statement is answered with frameErr, which may follow chunks
// already appended (the client discards the partial response).
func (s *Server) serveStatement(sess *db.Session, sql string, resp *response) {
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				s.stats.panics.Add(1)
				err = fmt.Errorf("internal error: %v", p)
			}
		}()
		res, run, err := sess.ExecUnboxed(sql)
		if err == nil {
			writeResult(resp, res, run)
		}
		return err
	}()
	if err != nil {
		s.stats.queryErrors.Add(1)
		resp.frame(frameErr, []byte(err.Error()))
		return
	}
	resp.frame(frameEnd, nil)
}

// writeResult appends res's v2 payload as frameChunks: the header, one chunk
// per set, and the post-join plan when one is shipped. Each chunk is encoded
// in place, at the run of the statement that produced res, and a set whose
// encoding a cached result keeps is copied from the kept bytes.
func writeResult(resp *response, res *db.Result, run parallel.Run) {
	resp.chunk(func(e *Encoder) { e.encodeHeader(FormatV2, len(res.Sets), res.PostJoinPlan != nil) })
	for _, set := range res.Sets {
		resp.chunk(func(e *Encoder) { e.encodeSetVersion(set, FormatV2, run) })
	}
	if res.PostJoinPlan != nil {
		resp.chunk(func(e *Encoder) { e.encodePlan(res.PostJoinPlan, FormatV2) })
	}
}

// Shutdown drains the server gracefully: new accepts are refused, idle
// connections are kicked immediately, busy connections finish their
// in-flight query and response, and Shutdown returns once every connection
// has exited. A positive timeout bounds the wait — connections still alive
// when it expires are force-closed. Safe to call more than once.
func (s *Server) Shutdown(timeout time.Duration) error {
	s.draining.Store(true)
	s.mu.Lock()
	ln := s.ln
	s.ln = nil
	// Kick every connection out of its blocking frame read: the deadline is
	// absolute and already past, so even a read armed after this loop fails
	// fast, and a connection mid-query merely finishes its response first
	// (write deadlines are untouched) and exits at the loop-top drain check.
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var expired <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	select {
	case <-done:
	case <-expired:
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
	return err
}

// Close stops the listener and drains with no time bound (connections are
// still kicked out of idle reads, so this returns as soon as in-flight
// queries finish).
func (s *Server) Close() error {
	return s.Shutdown(0)
}
