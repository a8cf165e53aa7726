package wire

import (
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"
)

// fakeClock drives the retry loop without real sleeping: Sleep records the
// request and advances virtual time instantly, whatever wake does.
type fakeClock struct {
	now    time.Time
	sleeps []time.Duration
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) Sleep(d time.Duration, _ <-chan struct{}) {
	c.sleeps = append(c.sleeps, d)
	c.now = c.now.Add(d)
}

// dialCounter is a dial hook that always fails, counting attempts.
type dialCounter struct{ n int }

func (d *dialCounter) dial(addr string) (net.Conn, error) {
	d.n++
	return nil, errors.New("synthetic dial failure")
}

// newBrokenClient builds a client whose every dial fails, on a fake clock.
func newBrokenClient(t *testing.T, p RetryPolicy) (*Client, *dialCounter, *fakeClock) {
	t.Helper()
	dc := &dialCounter{}
	c, err := DialOptions("synthetic:0", Options{Retry: p, Dial: dc.dial})
	if p.maxAttempts() > 1 {
		if err != nil {
			t.Fatalf("retrying DialOptions surfaced the dial error eagerly: %v", err)
		}
	} else if err == nil {
		t.Fatal("no-retry DialOptions swallowed the dial error")
	}
	if c == nil {
		t.Skip("client not constructed")
	}
	fc := newFakeClock()
	c.clock = fc
	return c, dc, fc
}

func TestRetryAttemptCount(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseBackoff: 100 * time.Millisecond, Jitter: -1, Seed: 1}
	c, dc, fc := newBrokenClient(t, p)
	_, err := c.Exec("SELECT x FROM t")
	if err == nil {
		t.Fatal("expected failure")
	}
	var xe *ExchangeError
	if !errors.As(err, &xe) {
		t.Fatalf("untyped error %T", err)
	}
	if xe.Attempts != 5 {
		t.Fatalf("attempts = %d, want 5", xe.Attempts)
	}
	// One dial at DialOptions time, then one per Exec attempt.
	if dc.n != 6 {
		t.Fatalf("dials = %d, want 6", dc.n)
	}
	// 4 backoff sleeps between the 5 attempts, doubling without jitter.
	want := []time.Duration{100, 200, 400, 800}
	if len(fc.sleeps) != len(want) {
		t.Fatalf("sleeps = %v, want 4 doubling delays", fc.sleeps)
	}
	for i, w := range want {
		if fc.sleeps[i] != w*time.Millisecond {
			t.Errorf("sleep %d = %v, want %v", i, fc.sleeps[i], w*time.Millisecond)
		}
	}
}

func TestRetryBackoffCap(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 8, BaseBackoff: 100 * time.Millisecond, MaxBackoff: 300 * time.Millisecond, Jitter: -1, Seed: 1}
	c, _, fc := newBrokenClient(t, p)
	c.Exec("SELECT x FROM t")
	if len(fc.sleeps) != 7 {
		t.Fatalf("sleeps = %d, want 7", len(fc.sleeps))
	}
	for i, d := range fc.sleeps {
		if d > 300*time.Millisecond {
			t.Errorf("sleep %d = %v exceeds the 300ms cap", i, d)
		}
	}
	if fc.sleeps[0] != 100*time.Millisecond || fc.sleeps[1] != 200*time.Millisecond {
		t.Errorf("pre-cap sleeps = %v, want 100ms then 200ms", fc.sleeps[:2])
	}
	for _, d := range fc.sleeps[2:] {
		if d != 300*time.Millisecond {
			t.Errorf("post-cap sleep = %v, want exactly the cap", d)
		}
	}
}

func TestRetryJitterBounds(t *testing.T) {
	p := RetryPolicy{BaseBackoff: 1 * time.Second, MaxBackoff: time.Second, Jitter: 0.5}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		d := p.backoff(1, rng)
		if d < 500*time.Millisecond || d > time.Second {
			t.Fatalf("jittered delay %v outside [500ms, 1s]", d)
		}
	}
	// Jitter 0 means the 0.5 default; negative disables it entirely.
	pDefault := RetryPolicy{BaseBackoff: time.Second, MaxBackoff: time.Second}
	for i := 0; i < 2000; i++ {
		d := pDefault.backoff(1, rng)
		if d < 500*time.Millisecond || d > time.Second {
			t.Fatalf("default-jitter delay %v outside [500ms, 1s]", d)
		}
	}
	pNone := RetryPolicy{BaseBackoff: time.Second, MaxBackoff: time.Second, Jitter: -1}
	if d := pNone.backoff(1, rng); d != time.Second {
		t.Fatalf("jitter-disabled delay = %v, want exactly 1s", d)
	}
}

func TestRetryDeterministicWithSeed(t *testing.T) {
	p := RetryPolicy{BaseBackoff: time.Second, MaxBackoff: 4 * time.Second, Jitter: 0.5}
	seq := func(seed int64) []time.Duration {
		rng := rand.New(rand.NewSource(seed))
		out := make([]time.Duration, 5)
		for i := range out {
			out[i] = p.backoff(i+1, rng)
		}
		return out
	}
	a, b := seq(7), seq(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRetryQueryTimeoutStopsEarly(t *testing.T) {
	// 100ms backoff, no jitter, 250ms overall budget: attempt 1 fails,
	// sleep 100ms; attempt 2 fails, the 200ms backoff is clamped to the
	// remaining 150ms; attempt 3 fails with the budget exhausted — even
	// though MaxAttempts would allow 10.
	p := RetryPolicy{
		MaxAttempts:  10,
		BaseBackoff:  100 * time.Millisecond,
		Jitter:       -1,
		QueryTimeout: 250 * time.Millisecond,
		Seed:         1,
	}
	c, _, fc := newBrokenClient(t, p)
	_, err := c.Exec("SELECT x FROM t")
	var xe *ExchangeError
	if !errors.As(err, &xe) {
		t.Fatalf("untyped error %T", err)
	}
	if xe.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (budget-bounded)", xe.Attempts)
	}
	if len(fc.sleeps) != 2 {
		t.Fatalf("sleeps = %v, want [100ms 150ms]", fc.sleeps)
	}
	if fc.sleeps[0] != 100*time.Millisecond || fc.sleeps[1] != 150*time.Millisecond {
		t.Fatalf("sleeps = %v, want [100ms 150ms] (second clamped to the budget)", fc.sleeps)
	}
}

func TestRetryDisabledByDefault(t *testing.T) {
	dc := &dialCounter{}
	_, err := DialOptions("synthetic:0", Options{Retry: RetryPolicy{MaxAttempts: 1, Seed: 1}, Dial: dc.dial})
	if err == nil {
		t.Fatal("no-retry DialOptions swallowed the dial error")
	}
	if dc.n != 1 {
		t.Fatalf("dials = %d, want exactly 1 with retry disabled", dc.n)
	}
}

func TestRetryBackoffHugeAttemptDoesNotOverflow(t *testing.T) {
	p := RetryPolicy{BaseBackoff: time.Second, MaxBackoff: 2 * time.Second, Jitter: -1}
	rng := rand.New(rand.NewSource(1))
	if d := p.backoff(1_000_000, rng); d != 2*time.Second {
		t.Fatalf("huge attempt backoff = %v, want the 2s cap", d)
	}
}
