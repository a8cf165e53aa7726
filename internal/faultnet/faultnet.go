// Package faultnet is a deterministic network-fault injector: net.Conn and
// net.Listener wrappers that fail on schedule, so every transport failure
// mode the wire layer must survive — a dropped socket, a mid-frame
// truncation, a flipped byte, a stalled peer, a refused accept — is a
// repeatable test instead of a production surprise.
//
// A Plan assigns one Fault per connection, in dial/accept order; connections
// beyond the script run clean. That shape makes retry testing natural: fault
// the first k connections and a correctly retrying client succeeds on
// connection k+1, while a plan that faults every connection must surface a
// typed error. Plans are plain data — build them literally, derive them from
// a seed with RandomPlan, or decode them from arbitrary bytes with
// DecodePlan (the fuzzing entry point; it never fails and always yields a
// bounded plan).
//
// The package is zero-dependency and wholly passive: production code paths
// never import it. It is installed under wire.Server and wire.Client through
// their listen/dial hooks, so turning faults off means not installing it.
package faultnet

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Action is the kind of fault a connection suffers.
type Action uint8

const (
	// None leaves the connection clean.
	None Action = iota
	// Drop closes the connection once Offset total bytes (reads plus
	// writes) have passed through it. A read stops at the offset and the
	// next operation fails; a write that crosses the offset delivers the
	// bytes before it and fails. Either way the drop cuts the stream at the
	// offset, however the bytes were segmented into operations.
	Drop
	// Stall pauses the connection once, for Delay, at the first operation
	// after Offset total bytes — latency injection / a mid-stream hiccup.
	Stall
	// Truncate delivers only the first Offset written bytes, cutting the
	// final write mid-buffer (mid-frame, for wire traffic) and closing.
	Truncate
	// Corrupt flips (XOR 0xFF) the single written byte at offset Offset,
	// then behaves cleanly — the classic undetected-without-a-checksum bug.
	Corrupt
	// Reset closes the connection at write offset Offset: a write that
	// crosses it delivers the bytes before the offset and fails, and a
	// write that starts at or beyond it transmits nothing.
	Reset
	// Refuse rejects the connection outright: a wrapped listener accepts
	// and instantly closes it, a Dialer fails the dial.
	Refuse

	numActions // count sentinel for RandomPlan/DecodePlan
)

var actionNames = map[Action]string{
	None: "none", Drop: "drop", Stall: "stall", Truncate: "truncate",
	Corrupt: "corrupt", Reset: "reset", Refuse: "refuse",
}

// String names the action ("drop", "stall", ...).
func (a Action) String() string {
	if s, ok := actionNames[a]; ok {
		return s
	}
	return fmt.Sprintf("action(%d)", uint8(a))
}

// ErrInjected marks every error produced by an injected fault, so tests can
// distinguish scheduled failures from real ones with errors.Is.
var ErrInjected = errors.New("faultnet: injected fault")

// Fault is one connection's failure schedule.
type Fault struct {
	Action Action
	// Offset is the byte threshold the action triggers at; which byte
	// stream it counts (read+write, write-only) depends on the Action.
	Offset int64
	// Delay is the Stall pause length.
	Delay time.Duration
}

func (f Fault) String() string {
	switch f.Action {
	case None:
		return "none"
	case Stall:
		return fmt.Sprintf("stall@%d+%v", f.Offset, f.Delay)
	default:
		return fmt.Sprintf("%s@%d", f.Action, f.Offset)
	}
}

// Plan schedules faults across a sequence of connections.
type Plan struct {
	// Conns assigns Conns[i] to the i-th connection dialed/accepted;
	// connections past the end run clean.
	Conns []Fault
}

func (p Plan) String() string {
	s := "plan["
	for i, f := range p.Conns {
		if i > 0 {
			s += " "
		}
		s += f.String()
	}
	return s + "]"
}

// Repeat returns a plan applying f to the first n connections.
func Repeat(f Fault, n int) Plan {
	conns := make([]Fault, n)
	for i := range conns {
		conns[i] = f
	}
	return Plan{Conns: conns}
}

// RandomPlan derives a deterministic n-connection plan from a seed: random
// actions, offsets spread across the small-message range (0..2048), stall
// delays of at most 20ms. The same seed always yields the same plan.
func RandomPlan(seed int64, n int) Plan {
	rng := rand.New(rand.NewSource(seed))
	conns := make([]Fault, n)
	for i := range conns {
		conns[i] = Fault{
			Action: Action(rng.Intn(int(numActions))),
			Offset: int64(rng.Intn(2048)),
			Delay:  time.Duration(rng.Intn(20)) * time.Millisecond,
		}
	}
	return Plan{Conns: conns}
}

// maxDecodedFaults and maxDecodedDelay bound DecodePlan so a fuzzer cannot
// schedule an effectively-infinite stall or an unbounded plan.
const (
	maxDecodedFaults = 8
	maxDecodedDelay  = 25 * time.Millisecond
)

// DecodePlan decodes arbitrary bytes into a valid, bounded fault plan: three
// bytes per fault (action, offset seed, delay seed), at most eight faults,
// delays capped at 25ms. It is a total function — any input yields a usable
// plan — which makes it the fuzzing entry point for the chaos harness.
func DecodePlan(data []byte) Plan {
	var p Plan
	for len(data) >= 3 && len(p.Conns) < maxDecodedFaults {
		action := Action(data[0] % uint8(numActions))
		// Offsets cluster near frame boundaries: byte value n maps to n²/4
		// (0..16k), covering header-sized and payload-sized thresholds.
		off := int64(data[1]) * int64(data[1]) / 4
		delay := time.Duration(data[2]) * maxDecodedDelay / 255
		p.Conns = append(p.Conns, Fault{Action: action, Offset: off, Delay: delay})
		data = data[3:]
	}
	return p
}

// injector hands one fault to each successive connection.
type injector struct {
	mu   sync.Mutex
	plan Plan
	next int
}

func (in *injector) take() Fault {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.next >= len(in.plan.Conns) {
		return Fault{}
	}
	f := in.plan.Conns[in.next]
	in.next++
	return f
}

// Listener wraps an accepted-connection stream with a fault plan.
type Listener struct {
	net.Listener
	in *injector
}

// WrapListener applies plan to the connections ln accepts, in accept order.
func WrapListener(ln net.Listener, plan Plan) *Listener {
	return &Listener{Listener: ln, in: &injector{plan: plan}}
}

// Listen is net.Listen plus a fault plan; its signature matches the
// wire.Server listen hook.
func Listen(network, addr string, plan Plan) (net.Listener, error) {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	return WrapListener(ln, plan), nil
}

// Accept returns the next connection wrapped with its scheduled fault. A
// Refuse fault closes the connection immediately (the dialer sees an instant
// hangup) and Accept moves on to the next one.
func (l *Listener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		f := l.in.take()
		if f.Action == Refuse {
			c.Close()
			continue
		}
		return &Conn{Conn: c, fault: f}, nil
	}
}

// Dialer dials TCP connections wrapped with a fault plan, in dial order; its
// Dial method matches the wire.Options dial hook.
type Dialer struct {
	in *injector
	// Timeout bounds each dial (0 = none).
	Timeout time.Duration
}

// NewDialer schedules plan over the connections the dialer creates.
func NewDialer(plan Plan) *Dialer {
	return &Dialer{in: &injector{plan: plan}}
}

// Dial connects to addr and applies the connection's scheduled fault. A
// Refuse fault fails the dial itself.
func (d *Dialer) Dial(addr string) (net.Conn, error) {
	f := d.in.take()
	if f.Action == Refuse {
		return nil, fmt.Errorf("%w: dial %s refused by plan", ErrInjected, addr)
	}
	c, err := net.DialTimeout("tcp", addr, d.Timeout)
	if err != nil {
		return nil, err
	}
	return &Conn{Conn: c, fault: f}, nil
}

// Conn applies one Fault to a wrapped connection. Fault checks happen at
// operation boundaries (one Read or Write call); Drop, Reset, Truncate and
// Corrupt then act at their byte offset inside the operation, so they cut
// or flip the stream where the plan says however the wire protocol
// segments it (a server response is one Write, a client Read takes what
// its buffer has room for). A Stall waits for the first operation past its
// offset.
type Conn struct {
	net.Conn
	fault Fault

	mu      sync.Mutex
	read    int64
	written int64
	stalled bool
	dead    bool
}

// Fault reports the connection's scheduled fault (tests introspect it).
func (c *Conn) Fault() Fault { return c.fault }

// kill closes the underlying connection and marks every future operation
// failed. Callers hold c.mu.
func (c *Conn) kill(op string) error {
	c.dead = true
	c.Conn.Close()
	return fmt.Errorf("%w: %s (%s after %d bytes)", ErrInjected, op, c.fault.Action, c.read+c.written)
}

// maybeStall performs the one-shot Stall pause. Callers hold c.mu; the sleep
// happens with the lock held deliberately — the stall must stall the whole
// connection, concurrent users included.
func (c *Conn) maybeStall() {
	if c.fault.Action == Stall && !c.stalled && c.read+c.written >= c.fault.Offset {
		c.stalled = true
		time.Sleep(c.fault.Delay)
	}
}

func (c *Conn) Read(b []byte) (int, error) {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return 0, fmt.Errorf("%w: read on killed connection", ErrInjected)
	}
	c.maybeStall()
	if c.fault.Action == Drop {
		left := c.fault.Offset - c.read - c.written
		if left <= 0 {
			err := c.kill("read")
			c.mu.Unlock()
			return 0, err
		}
		if int64(len(b)) > left {
			b = b[:left] // the read stops at the offset, so the drop cuts the stream there
		}
	}
	c.mu.Unlock()
	n, err := c.Conn.Read(b)
	c.mu.Lock()
	c.read += int64(n)
	c.mu.Unlock()
	return n, err
}

func (c *Conn) Write(b []byte) (int, error) {
	// Decide the fault outcome under the lock, then perform the (possibly
	// blocking) underlying write without it — a stalled peer must not wedge
	// the connection's Read side through the mutex.
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return 0, fmt.Errorf("%w: write on killed connection", ErrInjected)
	}
	c.maybeStall()
	payload := b
	truncated := false
	switch c.fault.Action {
	case Drop, Reset:
		left := c.fault.Offset - c.written
		if c.fault.Action == Drop {
			left -= c.read
		}
		if left <= 0 {
			err := c.kill("write")
			c.mu.Unlock()
			return 0, err
		}
		if int64(len(b)) > left {
			payload = b[:left] // the write stops at the offset, then the connection dies
			truncated = true
		}
	case Truncate:
		if remaining := c.fault.Offset - c.written; remaining <= int64(len(b)) {
			if remaining < 0 {
				remaining = 0
			}
			payload = b[:remaining]
			truncated = true
		}
	case Corrupt:
		if off := c.fault.Offset - c.written; 0 <= off && off < int64(len(b)) {
			mangled := append([]byte(nil), b...)
			mangled[off] ^= 0xFF
			payload = mangled
		}
	}
	c.mu.Unlock()

	n, err := c.Conn.Write(payload)
	c.mu.Lock()
	c.written += int64(n)
	if truncated {
		err = c.kill("write")
	}
	c.mu.Unlock()
	return n, err
}

// Close closes the underlying connection.
func (c *Conn) Close() error {
	c.mu.Lock()
	c.dead = true
	c.mu.Unlock()
	return c.Conn.Close()
}
