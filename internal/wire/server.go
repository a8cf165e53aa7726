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
// statement first, then writes a header chunk, one chunk per relation and
// one for the post-join plan, and flushes them with frameEnd at once; one
// chunk per relation lets a cached relation go out as the bytes its result
// keeps. A frameErr may replace the response or interrupt a chunk stream at
// any point (the client discards the partial buffer). Type values 2 and 4
// belonged to retired frames and stay unused.
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

// writeFrame writes one frame and its CRC32-IEEE trailer (over header and
// payload, folded in as the pieces are written).
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [5]byte
	hdr[0] = typ
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	sum := crc32.Update(crc32.ChecksumIEEE(hdr[:]), crc32.IEEETable, payload)
	var trailer [4]byte
	binary.BigEndian.PutUint32(trailer[:], sum)
	_, err := w.Write(trailer[:])
	return err
}

// readFrame reads one frame and verifies its CRC32 trailer. A mismatch
// returns errChecksum (wrapped) with the frame fully consumed, so the stream
// stays synchronized.
func readFrame(r io.Reader) (byte, []byte, error) {
	hdr, err := readFrameHeader(r)
	if err != nil {
		return 0, nil, err
	}
	payload, err := readFrameBody(r, hdr)
	if err != nil {
		return 0, nil, err
	}
	return hdr[0], payload, nil
}

// readFrameHeader reads a frame's type and length. A length over the limit
// returns errFrameTooLarge (wrapped) with the payload unread.
func readFrameHeader(r io.Reader) ([5]byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return hdr, err
	}
	if n := binary.BigEndian.Uint32(hdr[1:]); n > maxFrame {
		return hdr, fmt.Errorf("%w (%d bytes > %d)", errFrameTooLarge, n, maxFrame)
	}
	return hdr, nil
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
	sum := crc32.Update(crc32.ChecksumIEEE(hdr[:]), crc32.IEEETable, payload)
	if got := binary.BigEndian.Uint32(trailer[:]); got != sum {
		return nil, fmt.Errorf("%w (frame type %d, %d bytes, got %08x want %08x)",
			errChecksum, hdr[0], n, got, sum)
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
	// WriteTimeout bounds writing one response frame; zero means none. A
	// write that misses it sheds the connection (a stuck client reader must
	// not pin a server goroutine and its response buffer forever) and
	// counts as a write stall in Stats.
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
	w := bufio.NewWriter(conn)
	// Each connection gets its own session: statements on this connection see
	// their own completed writes immediately (the session re-pins after every
	// mutation) and execute against one consistent MVCC snapshot each, never
	// blocking on — or observing half of — another connection's writes.
	sess := s.db.NewSession()
	// send writes one frame under the write deadline without flushing: a
	// response's frames leave together in the flush of its last frame.
	send := func(typ byte, payload []byte) error {
		if s.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout))
		}
		err := writeFrame(w, typ, payload)
		if isTimeout(err) {
			s.stats.writeStalls.Add(1)
		}
		return err
	}
	// reply sends one frame and flushes.
	reply := func(typ byte, payload []byte) error {
		err := send(typ, payload)
		if err == nil {
			err = w.Flush()
			if isTimeout(err) {
				s.stats.writeStalls.Add(1)
			}
		}
		return err
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
		if !s.serveStatement(sess, sql, send, reply) {
			return
		}
	}
}

// serveStatement answers one query: it executes the statement, then writes
// the result's v2 payload as chunks (writeResult) and frameEnd into the
// connection's buffered writer, all on this goroutine, and flushes once.
// Only the concatenation of the chunk payloads is protocol; where the
// boundaries fall is the server's business.
//
// Execution and encoding run with panics confined to the connection: a
// panic becomes a statement error (terminal for the client — a
// deterministic panic would just repeat) instead of a dead server. A
// failed statement is answered with frameErr, which may follow chunks
// already written (the client discards the partial response). Returns
// false when the connection is no longer usable.
func (s *Server) serveStatement(sess *db.Session, sql string, send, reply func(byte, []byte) error) bool {
	var werr error // the first write error: the connection is unusable
	execErr := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				s.stats.panics.Add(1)
				err = fmt.Errorf("internal error: %v", p)
			}
		}()
		res, err := sess.ExecUnboxed(sql)
		if err == nil {
			werr = writeResult(send, res, sess.CoreOptions.Parallelism)
		}
		return err
	}()
	if werr != nil {
		return false
	}
	if execErr != nil {
		s.stats.queryErrors.Add(1)
		return reply(frameErr, []byte(execErr.Error())) == nil
	}
	return reply(frameEnd, nil) == nil
}

// writeResult sends res's v2 payload as frameChunks: the header, one chunk
// per set, and the post-join plan when one is shipped. Each chunk has its
// own Encoder, so a set whose encoding a cached result keeps is sent from
// the kept bytes without a copy.
func writeResult(send func(byte, []byte) error, res *db.Result, par int) error {
	chunk := func(encode func(*Encoder)) error {
		var e Encoder
		encode(&e)
		return send(frameChunk, e.buf)
	}
	if err := chunk(func(e *Encoder) { e.encodeHeader(FormatV2, len(res.Sets), res.PostJoinPlan != nil) }); err != nil {
		return err
	}
	for _, set := range res.Sets {
		if err := chunk(func(e *Encoder) { e.encodeSetVersion(set, FormatV2, par) }); err != nil {
			return err
		}
	}
	if res.PostJoinPlan == nil {
		return nil
	}
	return chunk(func(e *Encoder) { e.encodePlan(res.PostJoinPlan, FormatV2) })
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
