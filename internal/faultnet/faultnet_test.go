package faultnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// echoServer accepts connections and echoes everything back, for driving the
// conn wrapper from both sides.
func echoServer(t *testing.T) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				close(done)
				return
			}
			go func() {
				defer c.Close()
				io.Copy(c, c)
			}()
		}
	}()
	return ln.Addr().String(), func() { ln.Close(); <-done }
}

func dialFaulty(t *testing.T, addr string, f Fault) net.Conn {
	t.Helper()
	c, err := NewDialer(Plan{Conns: []Fault{f}}).Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestCleanConnectionPassesThrough(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	c := dialFaulty(t, addr, Fault{}) // Action None
	msg := []byte("hello, faultnet")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo = %q, want %q", got, msg)
	}
}

func TestDropKillsAfterOffset(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	c := dialFaulty(t, addr, Fault{Action: Drop, Offset: 8})
	if _, err := c.Write(make([]byte, 8)); err != nil {
		t.Fatalf("write below the threshold failed: %v", err)
	}
	_, err := c.Write([]byte("x"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("write past drop offset: err = %v, want ErrInjected", err)
	}
	// The connection stays dead.
	if _, err := c.Read(make([]byte, 1)); !errors.Is(err, ErrInjected) {
		t.Fatalf("read after drop: %v", err)
	}
}

// TestDropCutsReadsAtOffset: however much the peer has sent, a read never
// passes the drop offset, and the read after it fails.
func TestDropCutsReadsAtOffset(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	c := dialFaulty(t, addr, Fault{Action: Drop, Offset: 12})
	if _, err := c.Write([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(c)
	if string(got) != "01" || !errors.Is(err, ErrInjected) {
		t.Fatalf("read %q, %v; want %q then ErrInjected", got, err, "01")
	}
}

// TestDropAndResetCutWritesAtOffset: a single write that crosses the offset
// delivers exactly the bytes before it to the peer, fails, and leaves the
// connection dead — as a read stops at a drop's offset.
func TestDropAndResetCutWritesAtOffset(t *testing.T) {
	for _, action := range []Action{Drop, Reset} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		got := make(chan []byte, 1)
		go func() {
			c, err := ln.Accept()
			if err != nil {
				got <- nil
				return
			}
			defer c.Close()
			b, _ := io.ReadAll(c)
			got <- b
		}()
		c := dialFaulty(t, ln.Addr().String(), Fault{Action: action, Offset: 10})
		n, err := c.Write(bytes.Repeat([]byte{'x'}, 100))
		if n != 10 || !errors.Is(err, ErrInjected) {
			t.Errorf("%s@10: write of 100 bytes = (%d, %v), want (10, ErrInjected)", action, n, err)
		}
		if _, err := c.Write([]byte("x")); !errors.Is(err, ErrInjected) {
			t.Errorf("%s@10: write after the cut: %v, want ErrInjected", action, err)
		}
		c.Close()
		if b := <-got; len(b) != 10 {
			t.Errorf("%s@10: the peer received %d bytes, want 10", action, len(b))
		}
		ln.Close()
	}
}

func TestTruncateCutsMidBuffer(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	c := dialFaulty(t, addr, Fault{Action: Truncate, Offset: 5})
	n, err := c.Write([]byte("0123456789"))
	if n != 5 {
		t.Fatalf("truncated write wrote %d bytes, want 5", n)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("truncated write err = %v, want ErrInjected", err)
	}
}

func TestCorruptFlipsExactlyOneByte(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	c := dialFaulty(t, addr, Fault{Action: Corrupt, Offset: 3})
	msg := []byte("abcdef")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	want := []byte("abc" + string([]byte{'d' ^ 0xFF}) + "ef")
	if !bytes.Equal(got, want) {
		t.Fatalf("echo after corrupt = %q, want %q", got, want)
	}
	// The original buffer must not be mangled in place.
	if string(msg) != "abcdef" {
		t.Fatalf("caller's buffer mutated: %q", msg)
	}
	// Later traffic is clean.
	if _, err := c.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	two := make([]byte, 2)
	if _, err := io.ReadFull(c, two); err != nil || string(two) != "ok" {
		t.Fatalf("post-corruption traffic = %q, %v", two, err)
	}
}

func TestResetFailsWriteWithoutTransmitting(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	c := dialFaulty(t, addr, Fault{Action: Reset, Offset: 0})
	n, err := c.Write([]byte("never arrives"))
	if n != 0 || !errors.Is(err, ErrInjected) {
		t.Fatalf("reset write = (%d, %v), want (0, ErrInjected)", n, err)
	}
}

func TestStallDelaysOnce(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	const delay = 30 * time.Millisecond
	c := dialFaulty(t, addr, Fault{Action: Stall, Offset: 0, Delay: delay})
	start := time.Now()
	if _, err := c.Write([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < delay {
		t.Fatalf("first write took %v, want >= %v", d, delay)
	}
	// One-shot: the second write is fast.
	start = time.Now()
	if _, err := c.Write([]byte("b")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > delay {
		t.Fatalf("second write stalled too (%v)", d)
	}
}

func TestDialerRefuse(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	d := NewDialer(Plan{Conns: []Fault{{Action: Refuse}}})
	if _, err := d.Dial(addr); !errors.Is(err, ErrInjected) {
		t.Fatalf("refused dial err = %v, want ErrInjected", err)
	}
	// The next connection runs clean.
	c, err := d.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
}

func TestListenerRefuseClosesAndMovesOn(t *testing.T) {
	ln, err := Listen("tcp", "127.0.0.1:0", Plan{Conns: []Fault{{Action: Refuse}}})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- c
	}()
	// First dial: accepted then instantly closed by the plan.
	c1, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c1.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c1.Read(make([]byte, 1)); err == nil {
		t.Fatal("refused connection stayed open")
	}
	// Second dial: served.
	c2, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	select {
	case c := <-accepted:
		c.Close()
	case <-time.After(5 * time.Second):
		t.Fatal("second connection never accepted")
	}
}

func TestPlanAssignsFaultsInOrderThenClean(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	d := NewDialer(Plan{Conns: []Fault{
		{Action: Drop, Offset: 1},
		{Action: Reset, Offset: 2},
	}})
	for i, want := range []Fault{{Action: Drop, Offset: 1}, {Action: Reset, Offset: 2}, {}} {
		c, err := d.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.(*Conn).Fault(); got != want {
			t.Errorf("connection %d fault = %v, want %v", i, got, want)
		}
		c.Close()
	}
}

func TestRandomPlanDeterministic(t *testing.T) {
	a, b := RandomPlan(7, 5), RandomPlan(7, 5)
	if a.String() != b.String() {
		t.Fatalf("same seed, different plans:\n%s\n%s", a, b)
	}
	if c := RandomPlan(8, 5); c.String() == a.String() {
		t.Fatal("different seeds produced identical plans (suspicious)")
	}
}

func TestDecodePlanBounded(t *testing.T) {
	// Hostile input: max actions, max offsets, max delays, excess length.
	data := bytes.Repeat([]byte{0xFF}, 3*maxDecodedFaults*4)
	p := DecodePlan(data)
	if len(p.Conns) > maxDecodedFaults {
		t.Fatalf("decoded %d faults, cap is %d", len(p.Conns), maxDecodedFaults)
	}
	for _, f := range p.Conns {
		if f.Delay > maxDecodedDelay {
			t.Fatalf("decoded delay %v exceeds cap %v", f.Delay, maxDecodedDelay)
		}
		if f.Action >= numActions {
			t.Fatalf("decoded out-of-range action %d", f.Action)
		}
	}
	// Short and empty inputs yield empty plans, not panics.
	if got := DecodePlan(nil); len(got.Conns) != 0 {
		t.Fatalf("nil input decoded to %v", got)
	}
	if got := DecodePlan([]byte{1, 2}); len(got.Conns) != 0 {
		t.Fatalf("2-byte input decoded to %v", got)
	}
}
