package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"resultdb/internal/db"
	"resultdb/internal/sqlparse"
)

// Client speaks the protocol to a Server — query frames out, v2 chunk
// streams back, every frame CRC-checked — production-robustly: transport
// failures are wrapped with query context (ExchangeError), idempotent
// statements are retried with capped exponential backoff and jitter under a
// RetryPolicy, and a broken connection is transparently redialed.
//
// A query frame goes out in one Write. The response is read straight into
// one receive buffer the Client keeps: each frame's CRC is checked in place
// and the chunk payloads are moved together in place into the v2 payload,
// which is decoded with an inflate scratch the Client also keeps. The
// buffer grows only as bytes arrive, never to the length a frame header
// claims. A failed exchange or a reconnect drops what it held of a
// response. BytesRead counts the payload bytes of the frames received —
// headers and trailers excluded — as they complete.
//
// Concurrency contract: Exec is safe for concurrent use — a mutex serializes
// whole request/response exchanges (including any retries) on the single
// underlying connection, so concurrent Execs queue and run one at a time
// (open one Client per desired in-flight request for pipelining). BytesRead
// may be read concurrently with in-flight Execs. Close may be called at any
// time and does not wait for an exchange: an Exec blocked on the connection
// or sleeping in a retry backoff fails with ErrClosed, and so does every
// later Exec, without dialing. A closed client stays closed.
type Client struct {
	mu sync.Mutex // serializes one full Exec exchange (retries included)
	// connMu guards conn and closed, so that Close, which never takes mu,
	// and connect do not race.
	connMu sync.Mutex
	conn   net.Conn
	closed bool
	// done is closed by Close: it ends a retry backoff in progress.
	done chan struct{}
	// out holds the query frame being sent, in holds the bytes read from
	// the connection, and inflated is the decoder's inflate scratch. All
	// three are kept from one exchange to the next, unless an exchange grew
	// one past maxKeptBytes; nothing a decoded result holds points into
	// them.
	out, in, inflated []byte

	addr   string
	retry  RetryPolicy
	dial   func(addr string) (net.Conn, error)
	clock  clock
	rng    *rand.Rand
	broken bool // transport failed; the next attempt redials

	bytesRead  atomic.Int64
	reconnects atomic.Int64
}

// Options configures a client's retries and transport.
type Options struct {
	// Retry configures reconnect/retry behavior. The zero value is a
	// single attempt.
	Retry RetryPolicy
	// Dial overrides the transport dialer — the client's fault-injection
	// hook (install faultnet.Dialer.Dial) and test seam. nil means TCP
	// with the retry policy's ConnectTimeout.
	Dial func(addr string) (net.Conn, error)
}

// Dial connects to a server with the default options.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, Options{})
}

// DialOptions connects to a server with explicit retry and dial options.
// Nothing is written until the first Exec, so dialing an overloaded server
// queues in its accept backlog instead of failing: clients see latency, not
// errors.
func DialOptions(addr string, opts Options) (*Client, error) {
	c := &Client{
		addr:  addr,
		retry: opts.Retry,
		clock: realClock{},
		done:  make(chan struct{}),
	}
	seed := opts.Retry.Seed
	if seed == 0 {
		seed = 1
	}
	c.rng = rand.New(rand.NewSource(seed))
	c.dial = opts.Dial
	if c.dial == nil {
		c.dial = func(addr string) (net.Conn, error) {
			if t := c.retry.ConnectTimeout; t > 0 {
				return net.DialTimeout("tcp", addr, t)
			}
			return net.Dial("tcp", addr)
		}
	}
	if err := c.connect(); err != nil {
		if c.retry.maxAttempts() > 1 {
			// With retries configured the dial-time failure is just attempt
			// zero: hand the broken client back and let the first Exec's
			// retry loop redial with backoff.
			c.broken = true
			return c, nil
		}
		return nil, err
	}
	return c, nil
}

// ErrClosed is the error of an Exec that Close ended or that came after it.
var ErrClosed = errors.New("wire: client closed")

// connect dials. Callers hold c.mu (or are inside DialOptions, before the
// client escapes). A connection dialed while Close ran is closed at once.
func (c *Client) connect() error {
	conn, err := c.dial(c.addr)
	if err != nil {
		return err
	}
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if c.closed {
		conn.Close()
		return ErrClosed
	}
	c.conn = conn
	c.in = c.in[:0] // a partial response of the last connection is dropped
	c.broken = false
	return nil
}

// breakConn marks the connection unusable; the next attempt redials.
// Callers hold c.mu.
func (c *Client) breakConn() {
	if c.conn != nil {
		c.conn.Close()
	}
	c.broken = true
}

// BytesRead returns the accumulated payload bytes of the frames received
// (headers and trailers excluded), for transfer accounting. Safe to call
// concurrently with Exec.
func (c *Client) BytesRead() int { return int(c.bytesRead.Load()) }

// Reconnects returns how many times the client redialed after a transport
// failure. Safe to call concurrently with Exec.
func (c *Client) Reconnects() int { return int(c.reconnects.Load()) }

// SetRetry replaces the retry policy (the shell's \retry command). Takes
// effect from the next Exec.
func (c *Client) SetRetry(p RetryPolicy) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.retry = p
}

// RetryPolicy reports the active retry policy.
func (c *Client) RetryPolicy() RetryPolicy {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retry
}

// isIdempotent reports whether a statement may be safely re-sent after an
// ambiguous failure: reads (SELECT, EXPLAIN) are, everything else — and
// anything unparsable — is not.
func isIdempotent(sql string) bool {
	st, err := sqlparse.Parse(sql)
	if err != nil {
		return false
	}
	switch st.(type) {
	case *sqlparse.Select, *sqlparse.Explain:
		return true
	}
	return false
}

// Exec sends one statement and decodes the response. Safe for concurrent
// use; see the Client concurrency contract.
//
// Failures return an *ExchangeError carrying the kind (retryable, terminal,
// corrupt), the query hash, and how far the response had progressed. With a
// RetryPolicy configured, retryable and corrupt failures of idempotent
// statements are retried on a fresh connection under capped exponential
// backoff; terminal (server-reported statement) errors and non-idempotent
// statements are never retried, though the connection still heals on the
// next call.
func (c *Client) Exec(sql string) (*db.Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var overall time.Time
	if t := c.retry.QueryTimeout; t > 0 {
		overall = c.clock.Now().Add(t)
	}
	idempotent := -1 // computed lazily on first failure: 1 yes, 0 no
	for attempt := 1; ; attempt++ {
		res, xe := c.exchange(sql, overall)
		if xe == nil {
			return res, nil
		}
		xe.Attempts = attempt
		if xe.Kind == KindTerminal {
			return nil, xe
		}
		if c.isClosed() {
			// Close ended the exchange: nothing is retried.
			xe.Kind, xe.Err = KindTerminal, ErrClosed
			return nil, xe
		}
		// The transport or the payload failed: the connection cannot be
		// trusted for another exchange.
		c.breakConn()
		if idempotent < 0 {
			idempotent = 0
			if isIdempotent(sql) {
				idempotent = 1
			}
		}
		if idempotent == 0 || attempt >= c.retry.maxAttempts() {
			return nil, xe
		}
		delay := c.retry.backoff(attempt, c.rng)
		if !overall.IsZero() {
			remaining := overall.Sub(c.clock.Now())
			if remaining <= 0 {
				return nil, xe
			}
			if delay > remaining {
				delay = remaining
			}
		}
		// Close ends the wait; the next attempt then fails with ErrClosed.
		c.clock.Sleep(delay, c.done)
	}
}

// exchange performs one attempt: reconnect if needed, send the query, read
// and decode the response. Callers hold c.mu.
func (c *Client) exchange(sql string, overall time.Time) (*db.Result, *ExchangeError) {
	fail := func(kind ErrorKind, frames int, bytes int64, err error) (*db.Result, *ExchangeError) {
		return nil, &ExchangeError{
			Kind:       kind,
			QueryHash:  queryHash(sql),
			FrameIndex: frames,
			BytesRead:  bytes,
			Err:        err,
		}
	}
	if c.isClosed() {
		return fail(KindTerminal, 0, 0, ErrClosed)
	}
	if c.broken || c.conn == nil {
		c.reconnects.Add(1)
		if err := c.connect(); err != nil {
			c.broken = true
			return fail(KindRetryable, 0, 0, fmt.Errorf("reconnect: %w", err))
		}
	}
	// Per-attempt deadline, distinct from (and clamped by) the overall
	// query timeout.
	deadline := overall
	if t := c.retry.AttemptTimeout; t > 0 {
		d := c.clock.Now().Add(t)
		if deadline.IsZero() || d.Before(deadline) {
			deadline = d
		}
	}
	if !deadline.IsZero() {
		c.conn.SetDeadline(deadline)
		defer c.conn.SetDeadline(time.Time{})
	}
	c.out = appendFrame(c.out[:0], frameQuery, []byte(sql))
	_, err := c.conn.Write(c.out)
	c.out = keep(c.out)
	if err != nil {
		return fail(KindRetryable, 0, 0, err)
	}
	defer func() {
		if cap(c.in) > maxKeptBytes {
			c.in = nil
		}
	}()
	// Read the response into the receive buffer. As each chunk completes,
	// its payload is moved down in place, so in[:pay] is the response's v2
	// payload so far; in[next:] is the stream not yet parsed.
	in := c.in // may begin with bytes the last response left over
	frames, pay, next := 0, 0, 0
	var bytes int64
	var rerr error
	for {
		if rest := in[next:]; len(rest) >= 5 {
			n, err := frameLen(rest)
			if err != nil {
				c.in = in[:0]
				return fail(KindRetryable, frames, bytes, err)
			}
			if end := 5 + n; len(rest) >= end+4 {
				typ, payload := rest[0], rest[5:end]
				if err := checkFrame(rest[:5], payload, binary.BigEndian.Uint32(rest[end:])); err != nil {
					c.in = in[:0]
					return fail(KindCorrupt, frames, bytes, err)
				}
				frames++
				bytes += int64(n)
				c.bytesRead.Add(int64(n))
				next += end + 4
				if typ == frameChunk {
					pay += copy(in[pay:], payload)
					continue
				}
				var res *db.Result
				var xe *ExchangeError
				switch typ {
				case frameEnd:
					d := Decoder{buf: in[:pay], inflated: c.inflated}
					if res, err = d.result(FormatV2); err != nil {
						res, xe = fail(KindCorrupt, frames, bytes, err)
					}
					c.inflated = keep(d.inflated)
				case frameErr:
					res, xe = fail(classifyServerErr(payload), frames, bytes, errors.New(string(payload)))
				default:
					res, xe = fail(KindCorrupt, frames, bytes,
						fmt.Errorf("wire: unexpected frame type %d in a response", typ))
				}
				// Bytes past the response's last frame stay for the next.
				c.in = in[:copy(in, in[next:])]
				return res, xe
			}
		}
		if rerr != nil {
			c.in = in[:0]
			if rerr == io.EOF && len(in) > next {
				rerr = io.ErrUnexpectedEOF
			}
			return fail(classifyTransport(rerr), frames, bytes, rerr)
		}
		if len(in) == cap(in) {
			// Full: move the unparsed tail down to the payload's end, and
			// grow only if that frees nothing. The buffer doubles as bytes
			// arrive, never to a length a header claims.
			if next > pay {
				in = in[:pay+copy(in[pay:], in[next:])]
				next = pay
			}
			if len(in) == cap(in) {
				in = slices.Grow(in, max(cap(in), recvStep))
			}
		}
		var m int
		m, rerr = c.conn.Read(in[len(in):cap(in)])
		in = in[:len(in)+m]
	}
}

// recvStep is the least a Client's receive buffer grows by.
const recvStep = 16 << 10

// classifyTransport distinguishes a checksum failure (corrupt bytes arrived)
// from an ordinary transport death (nothing arrived).
func classifyTransport(err error) ErrorKind {
	if errors.Is(err, errChecksum) {
		return KindCorrupt
	}
	return KindRetryable
}

// classifyServerErr classifies a frameErr payload: protocol-level failures
// (the server prefixes them "wire:") are retryable on a fresh connection;
// anything else is the statement's own error and terminal.
func classifyServerErr(payload []byte) ErrorKind {
	if strings.HasPrefix(string(payload), "wire:") {
		return KindRetryable
	}
	return KindTerminal
}

// isClosed reports whether Close has been called.
func (c *Client) isClosed() bool {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	return c.closed
}

// Close tears the connection down without waiting for an exchange in flight
// or a retry backoff, which then fails with ErrClosed, as every later Exec
// does. Closing a closed client does nothing.
func (c *Client) Close() error {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	close(c.done)
	if c.conn == nil {
		return nil
	}
	return c.conn.Close()
}
