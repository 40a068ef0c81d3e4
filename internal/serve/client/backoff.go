package serveclient

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"islands/internal/serve"
)

// BackoffPolicy is the shared retry policy for admission-control rejections
// (429 queue-full, 503 draining): capped exponential backoff with full
// jitter, the server's Retry-After hint honored as a floor, and every sleep
// watching the context so a canceled client stops immediately instead of
// spinning against a draining or dead server. cmd/mpdata-load and the fleet
// router (internal/fleet) retry through this one policy, so the whole client
// population desynchronizes the same way and retry storms cannot form.
type BackoffPolicy struct {
	// Initial is the base of the exponential component (0 = 100ms).
	Initial time.Duration
	// Max caps the exponential component (0 = 5s). The hint is added on
	// top, so the worst-case delay is hint + Max.
	Max time.Duration
	// MaxAttempts bounds the total submission attempts, first try included
	// (0 = 8). There is deliberately no unlimited setting: a client that
	// cannot place work after MaxAttempts reports the rejection instead of
	// hammering forever.
	MaxAttempts int
	// OnRetry, when set, observes every scheduled retry (attempt is
	// 0-based) — load drivers count rejections through it.
	OnRetry func(attempt int, delay time.Duration, err error)
	// Rand is the jitter source in [0,1) (nil = math/rand; tests pin it).
	Rand func() float64
}

// withDefaults resolves the zero values to the documented defaults.
func (p BackoffPolicy) withDefaults() BackoffPolicy {
	if p.Initial <= 0 {
		p.Initial = 100 * time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = 5 * time.Second
	}
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 8
	}
	if p.Rand == nil {
		p.Rand = rand.Float64
	}
	return p
}

// Delay computes the attempt-th (0-based) retry delay: the server's
// Retry-After hint as a floor, plus a fully jittered exponential component
// rand * min(Max, Initial*2^attempt). The hint floor keeps the delay honest
// (a server asking for 3s is never retried sooner); the jitter spreads a
// synchronized client cohort across the window instead of letting them
// stampede back in lockstep. The sum saturates at the longest Duration.
func (p BackoffPolicy) Delay(attempt int, hint time.Duration) time.Duration {
	p = p.withDefaults()
	exp := p.Initial
	for i := 0; i < attempt && exp < p.Max; i++ {
		exp *= 2
	}
	if exp > p.Max {
		exp = p.Max
	}
	if hint < 0 {
		hint = 0
	}
	jitter := time.Duration(p.Rand() * float64(exp))
	if hint > maxDuration-jitter {
		return maxDuration
	}
	return hint + jitter
}

// SleepContext sleeps for d unless the context is done first, returning the
// context's error in that case — the cancellation-aware replacement for the
// bare time.Sleep retry loops used to spin in.
func SleepContext(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// SubmitRetry submits a job spec, retrying admission-control rejections
// (429/503) under the policy. Non-retryable errors (bad spec, transport
// failure) return immediately; a canceled context aborts mid-backoff. When
// every attempt is rejected the last rejection is returned wrapped, so
// errors.As still surfaces the *APIError.
func (c *Client) SubmitRetry(ctx context.Context, spec serve.Spec, policy BackoffPolicy) (serve.JobStatus, error) {
	p := policy.withDefaults()
	var last error
	for attempt := 0; attempt < p.MaxAttempts; attempt++ {
		st, err := c.Submit(ctx, spec)
		if err == nil {
			return st, nil
		}
		var apiErr *APIError
		if !errors.As(err, &apiErr) || !apiErr.IsRetryable() {
			return st, err
		}
		last = err
		if attempt == p.MaxAttempts-1 {
			break // no point sleeping after the final attempt
		}
		delay := p.Delay(attempt, apiErr.RetryAfter)
		if p.OnRetry != nil {
			p.OnRetry(attempt, delay, err)
		}
		if serr := SleepContext(ctx, delay); serr != nil {
			return serve.JobStatus{}, fmt.Errorf("serveclient: submit canceled during backoff: %w", serr)
		}
	}
	return serve.JobStatus{}, fmt.Errorf("serveclient: submit rejected %d times, giving up: %w", p.MaxAttempts, last)
}
