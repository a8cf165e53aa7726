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

// Client speaks the protocol to a Server, production-robustly: transport
// failures are wrapped with query context (ExchangeError), idempotent
// statements are retried with capped exponential backoff and jitter under a
// RetryPolicy, and a broken connection is transparently redialed with the
// hello negotiation re-run (the renegotiated connection may cleanly
// downgrade, e.g. against a restarted server clamped to v1).
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

	addr  string
	opts  Options
	retry RetryPolicy
	dial  func(addr string) (net.Conn, error)
	clock clock
	rng   *rand.Rand

	helloPending bool // hello sent, reply not yet consumed
	version      int  // negotiated payload version (FormatV1 without a hello)
	streaming    bool // negotiated streamed responses
	integrity    bool // negotiated CRC32 frame trailers
	broken       bool // transport failed; the next attempt redials

	bytesRead  atomic.Int64
	reconnects atomic.Int64
}

// Options configures a client connection.
type Options struct {
	// Version is the payload version to request (FormatV1 or FormatV2;
	// 0 = FormatV2). The server may clamp it down; Version() reports the
	// negotiated outcome.
	Version int
	// Streaming requests chunked responses (server-side pipelining of
	// execution, encoding, and transmission).
	Streaming bool
	// Legacy skips the hello exchange entirely, reproducing the original
	// protocol byte for byte: v1 payloads, buffered responses, no frame
	// checksums. Version, Streaming, and NoIntegrity are ignored.
	Legacy bool
	// NoIntegrity skips requesting CRC32 frame trailers during the hello
	// exchange. By default every negotiated connection requests them, so a
	// flipped bit anywhere in a frame surfaces as a typed corrupt-payload
	// error instead of silently wrong data.
	NoIntegrity bool
	// Retry configures reconnect/retry behavior. The zero value falls back
	// to RetryFromEnv() (RESULTDB_RETRIES / RESULTDB_RETRY_BACKOFF), which
	// is itself zero — single attempt — when the variables are unset.
	Retry RetryPolicy
	// Dial overrides the transport dialer — the client's fault-injection
	// hook (install faultnet.Dialer.Dial) and test seam. nil means TCP
	// with the retry policy's ConnectTimeout.
	Dial func(addr string) (net.Conn, error)
}

// Dial connects to a server, negotiating the newest payload version,
// streamed responses, and frame integrity. Use DialOptions to pin a version
// or disable any of them.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, Options{Version: FormatV2, Streaming: true})
}

// DialOptions connects to a server with explicit protocol options. The hello
// is written at dial time but the server's reply is consumed lazily, at the
// start of the first Exec (or Version/Streaming call) — so dialing an
// overloaded server queues instead of blocking, exactly like the legacy
// protocol: clients see latency, not errors, and negotiation failures
// surface on first use.
func DialOptions(addr string, opts Options) (*Client, error) {
	if isZeroRetry(opts.Retry) {
		opts.Retry = RetryFromEnv()
	}
	c := &Client{
		addr:    addr,
		opts:    opts,
		retry:   opts.Retry,
		clock:   realClock{},
		version: FormatV1,
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
			// retry loop redial (and re-negotiate) with backoff.
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

// connect dials and performs the write half of the hello exchange. Callers
// hold c.mu (or are inside DialOptions, before the client escapes).
func (c *Client) connect() error {
	conn, err := c.dial(c.addr)
	if err != nil {
		return err
	}
	c.conn = conn
	c.r = bufio.NewReader(conn)
	c.w = bufio.NewWriter(conn)
	c.version = FormatV1
	c.streaming = false
	c.integrity = false
	c.helloPending = false
	c.broken = false
	if c.opts.Legacy {
		return nil
	}
	want := c.opts.Version
	if want == 0 {
		want = FormatV2
	}
	var flags uint64
	if c.opts.Streaming {
		flags |= helloStreaming
	}
	if !c.opts.NoIntegrity {
		flags |= helloIntegrity
	}
	// The hello itself always travels checksum-free: the trailer discipline
	// starts with the first post-hello frame, once both sides know it.
	if err := writeFrame(c.w, frameHello, encodeHello(want, flags), false); err != nil {
		conn.Close()
		c.broken = true
		return err
	}
	if err := c.w.Flush(); err != nil {
		conn.Close()
		c.broken = true
		return err
	}
	c.helloPending = true
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

// finishHello consumes the server's hello reply if one is still in flight.
// Callers must hold c.mu. On failure the connection is marked broken, so a
// retrying Exec redials rather than reporting the same stale failure
// forever.
func (c *Client) finishHello() error {
	if !c.helloPending {
		return nil
	}
	typ, payload, err := readFrame(c.r, false)
	if err != nil {
		c.broken = true
		return err
	}
	switch typ {
	case frameHello:
		v, flags, err := decodeHello(payload)
		if err != nil {
			c.broken = true
			return err
		}
		if v != FormatV1 && v != FormatV2 {
			c.broken = true
			return fmt.Errorf("wire: server negotiated unsupported version %d", v)
		}
		c.version = v
		c.streaming = flags&helloStreaming != 0
		// Honor the integrity grant only if we requested it: a server
		// volunteering trailers we did not ask for would desynchronize us.
		c.integrity = !c.opts.NoIntegrity && flags&helloIntegrity != 0
		c.helloPending = false
		return nil
	case frameErr:
		c.broken = true
		return errors.New(string(payload))
	default:
		c.broken = true
		return fmt.Errorf("wire: unexpected frame type %d in hello exchange", typ)
	}
}

// Version reports the negotiated payload version (FormatV1 or FormatV2),
// completing the hello exchange if its reply is still in flight. Reports
// FormatV1 if negotiation failed (the next Exec returns the actual error).
func (c *Client) Version() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.finishHello()
	return c.version
}

// Streaming reports whether responses arrive as chunk streams, completing
// the hello exchange if its reply is still in flight.
func (c *Client) Streaming() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.finishHello()
	return c.streaming
}

// Integrity reports whether frames carry CRC32 trailers on this connection,
// completing the hello exchange if its reply is still in flight.
func (c *Client) Integrity() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.finishHello()
	return c.integrity
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

// exchange performs one attempt: reconnect if needed, settle the hello,
// send the query, read and decode the response. Callers hold c.mu.
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
	// Settle the negotiation reply first: whether the query frame (and the
	// response) carries a CRC trailer is decided by the hello outcome.
	if err := c.finishHello(); err != nil {
		return fail(classifyTransport(err), 0, 0, fmt.Errorf("hello exchange: %w", err))
	}
	if err := writeFrame(c.w, frameQuery, []byte(sql), c.integrity); err != nil {
		return fail(KindRetryable, 0, 0, err)
	}
	if err := c.w.Flush(); err != nil {
		return fail(KindRetryable, 0, 0, err)
	}
	frames := 0
	var bytes int64
	readNext := func() (byte, []byte, error) {
		typ, payload, err := readFrame(c.r, c.integrity)
		if err != nil {
			return 0, nil, err
		}
		frames++
		bytes += int64(len(payload))
		c.bytesRead.Add(int64(len(payload)))
		return typ, payload, nil
	}
	if c.streaming {
		var buf []byte
		for {
			typ, payload, err := readNext()
			if err != nil {
				return fail(classifyTransport(err), frames, bytes, err)
			}
			switch typ {
			case frameChunk:
				buf = append(buf, payload...)
			case frameEnd:
				res, err := DecodeResultExpect(buf, c.version)
				if err != nil {
					return fail(KindCorrupt, frames, bytes, err)
				}
				return res, nil
			case frameErr:
				return fail(classifyServerErr(payload), frames, bytes, errors.New(string(payload)))
			default:
				return fail(KindCorrupt, frames, bytes,
					fmt.Errorf("wire: unexpected frame type %d in chunked response", typ))
			}
		}
	}
	typ, payload, err := readNext()
	if err != nil {
		return fail(classifyTransport(err), frames, bytes, err)
	}
	switch typ {
	case frameOK:
		res, err := DecodeResultExpect(payload, c.version)
		if err != nil {
			return fail(KindCorrupt, frames, bytes, err)
		}
		return res, nil
	case frameErr:
		return fail(classifyServerErr(payload), frames, bytes, errors.New(string(payload)))
	default:
		return fail(KindCorrupt, frames, bytes, fmt.Errorf("wire: unexpected frame type %d", typ))
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
