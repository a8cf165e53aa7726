package wire

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
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
// Concurrency contract: Exec is safe for concurrent use — a mutex serializes
// whole request/response exchanges (including any retries) on the single
// underlying connection, so concurrent Execs queue and run one at a time
// (open one Client per desired in-flight request for pipelining). BytesRead
// may be read concurrently with in-flight Execs. Close may be called at any
// time; Execs blocked on the connection fail with the close error.
type Client struct {
	mu   sync.Mutex // serializes one full Exec exchange (retries included)
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer

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
	// Retry configures reconnect/retry behavior. The zero value falls back
	// to RetryFromEnv() (RESULTDB_RETRIES / RESULTDB_RETRY_BACKOFF), which
	// is itself zero — single attempt — when the variables are unset.
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
	if isZeroRetry(opts.Retry) {
		opts.Retry = RetryFromEnv()
	}
	c := &Client{
		addr:  addr,
		retry: opts.Retry,
		clock: realClock{},
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

// isZeroRetry reports whether p is the zero policy (RetryPolicy is
// comparable; spelled out so adding fields keeps this honest).
func isZeroRetry(p RetryPolicy) bool { return p == RetryPolicy{} }

// connect dials. Callers hold c.mu (or are inside DialOptions, before the
// client escapes).
func (c *Client) connect() error {
	conn, err := c.dial(c.addr)
	if err != nil {
		return err
	}
	c.conn = conn
	c.r = bufio.NewReader(conn)
	c.w = bufio.NewWriter(conn)
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

// BytesRead returns the accumulated payload bytes received, for transfer
// accounting. Safe to call concurrently with Exec.
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
		c.clock.Sleep(delay)
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
	if err := writeFrame(c.w, frameQuery, []byte(sql)); err != nil {
		return fail(KindRetryable, 0, 0, err)
	}
	if err := c.w.Flush(); err != nil {
		return fail(KindRetryable, 0, 0, err)
	}
	frames := 0
	var bytes int64
	var buf []byte
	for {
		typ, payload, err := readFrame(c.r)
		if err != nil {
			return fail(classifyTransport(err), frames, bytes, err)
		}
		frames++
		bytes += int64(len(payload))
		c.bytesRead.Add(int64(len(payload)))
		switch typ {
		case frameChunk:
			buf = append(buf, payload...)
		case frameEnd:
			res, err := DecodeResultExpect(buf, FormatV2)
			if err != nil {
				return fail(KindCorrupt, frames, bytes, err)
			}
			return res, nil
		case frameErr:
			return fail(classifyServerErr(payload), frames, bytes, errors.New(string(payload)))
		default:
			return fail(KindCorrupt, frames, bytes,
				fmt.Errorf("wire: unexpected frame type %d in a response", typ))
		}
	}
}

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

// Close tears the connection down.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.broken = true
	if c.conn == nil {
		return nil
	}
	return c.conn.Close()
}
