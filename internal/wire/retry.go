package wire

import (
	"math/rand"
	"os"
	"strconv"
	"time"
)

// Environment knobs picked up by DialOptions when Options.Retry is zero, so
// any tool built on the client (the shell, benchrunner, tests) gains retry
// behavior without new flags.
const (
	// RetriesEnvVar (RESULTDB_RETRIES) sets RetryPolicy.MaxAttempts.
	RetriesEnvVar = "RESULTDB_RETRIES"
	// RetryBackoffEnvVar (RESULTDB_RETRY_BACKOFF) sets
	// RetryPolicy.BaseBackoff; any time.ParseDuration string ("100ms").
	RetryBackoffEnvVar = "RESULTDB_RETRY_BACKOFF"
)

// RetryPolicy configures idempotent-statement retry on the wire client.
// The zero value disables retry entirely (one attempt, no added deadlines),
// preserving the original client behavior.
//
// Only idempotent statements (SELECT, EXPLAIN) are ever retried: a
// non-idempotent statement that fails mid-exchange may or may not have been
// applied, so the client surfaces the typed error and lets the application
// decide. Every failure still marks the connection broken, and the next Exec
// transparently reconnects.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries for an idempotent statement,
	// the first included. 0 and 1 both mean a single attempt.
	MaxAttempts int
	// BaseBackoff is the pre-jitter delay before the second attempt; each
	// further attempt doubles it. Defaults to 50ms when retry is enabled.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth. Defaults to 2s.
	MaxBackoff time.Duration
	// Jitter randomizes each backoff downward: a delay d is drawn uniformly
	// from [d*(1-Jitter), d]. 0 means the 0.5 default; negative disables
	// jitter.
	Jitter float64
	// ConnectTimeout bounds each (re)dial attempt. 0 = none.
	ConnectTimeout time.Duration
	// AttemptTimeout bounds one full exchange — query write through
	// response read — per attempt, distinct from the overall QueryTimeout.
	// 0 = none.
	AttemptTimeout time.Duration
	// QueryTimeout bounds the whole Exec call across all attempts and
	// backoff sleeps. 0 = none.
	QueryTimeout time.Duration
	// Seed seeds the jitter source, making backoff sequences reproducible;
	// 0 means a fixed default seed.
	Seed int64
}

// DefaultRetryPolicy is the recommended production policy: 4 attempts,
// 50ms..2s exponential backoff with 0.5 jitter, 5s per-attempt exchange
// deadline, 30s overall.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts:    4,
		BaseBackoff:    50 * time.Millisecond,
		MaxBackoff:     2 * time.Second,
		AttemptTimeout: 5 * time.Second,
		QueryTimeout:   30 * time.Second,
	}
}

// RetryFromEnv builds a policy from the RESULTDB_RETRIES and
// RESULTDB_RETRY_BACKOFF environment variables; unset or unparsable
// variables leave the zero (no-retry) policy.
func RetryFromEnv() RetryPolicy {
	var p RetryPolicy
	if v := os.Getenv(RetriesEnvVar); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 1 {
			p = DefaultRetryPolicy()
			p.MaxAttempts = n
		}
	}
	if v := os.Getenv(RetryBackoffEnvVar); v != "" && p.MaxAttempts > 1 {
		if d, err := time.ParseDuration(v); err == nil && d > 0 {
			p.BaseBackoff = d
		}
	}
	return p
}

// maxAttempts normalizes MaxAttempts (minimum one attempt).
func (p RetryPolicy) maxAttempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

func (p RetryPolicy) base() time.Duration {
	if p.BaseBackoff <= 0 {
		return 50 * time.Millisecond
	}
	return p.BaseBackoff
}

func (p RetryPolicy) cap() time.Duration {
	if p.MaxBackoff <= 0 {
		return 2 * time.Second
	}
	return p.MaxBackoff
}

func (p RetryPolicy) jitter() float64 {
	switch {
	case p.Jitter < 0:
		return 0
	case p.Jitter == 0:
		return 0.5
	case p.Jitter > 1:
		return 1
	default:
		return p.Jitter
	}
}

// backoff computes the jittered delay after the attempt-th failure
// (1-based): min(base * 2^(attempt-1), cap), then drawn uniformly from
// [d*(1-jitter), d].
func (p RetryPolicy) backoff(attempt int, rng *rand.Rand) time.Duration {
	d := p.base()
	// Shift with an explicit bound so absurd attempt counts cannot
	// overflow; the cap clamps long before 2^20 anyway.
	for i := 1; i < attempt && i < 20 && d < p.cap(); i++ {
		d *= 2
	}
	if d > p.cap() {
		d = p.cap()
	}
	if j := p.jitter(); j > 0 {
		d = time.Duration(float64(d) * (1 - j*rng.Float64()))
	}
	return d
}

// clock abstracts time for the retry loop so backoff tests run on a fake
// clock with zero real sleeping.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }
