// Package backoff is the repository's one retry-timing policy — bounded
// exponential backoff with deterministic jitter — and its context-aware
// sleep. The sweep executor and the trace-obj fetcher both retry with it.
package backoff

import (
	"context"
	"time"
)

// Policy shapes the delay before a retry. Delay is a pure function of
// (Seed, key, attempt), so retry timing is reproducible run to run while
// distinct keys still spread out instead of retrying in lockstep.
type Policy struct {
	// Base is the delay scale of the first retry; attempt k scales it by
	// 2^k. 0 selects 50ms.
	Base time.Duration
	// Max caps the backoff and any peer's Retry-After hint. 0 selects 2s.
	Max time.Duration
	// Seed keys the jitter hash; the zero seed is valid and the default.
	Seed int64
}

// withDefaults resolves the zero-value fields.
func (p Policy) withDefaults() Policy {
	if p.Base <= 0 {
		p.Base = 50 * time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = 2 * time.Second
	}
	return p
}

// Delay returns the backoff before retry number attempt (0-based) of the
// operation identified by key: half the capped exponential step plus a
// jittered half, hashed with FNV-1a from (Seed, key..., attempt).
func (p Policy) Delay(attempt int, key ...uint64) time.Duration {
	p = p.withDefaults()
	attempt = max(attempt, 0)
	d := p.Base
	for i := 0; i < attempt && d < p.Max; i++ {
		d *= 2
	}
	d = min(d, p.Max)
	h := mix(offset, uint64(p.Seed))
	for _, k := range key {
		h = mix(h, k)
	}
	h = mix(h, uint64(attempt))
	half := int64(d / 2)
	if half <= 0 {
		return d
	}
	return time.Duration(half + int64(h%uint64(half)))
}

// Hinted is Delay for a peer that asked to be retried after hint (an HTTP
// Retry-After): the longer of the two, but never beyond Max, so no peer
// can park a retry without bound.
func (p Policy) Hinted(hint time.Duration, attempt int, key ...uint64) time.Duration {
	return max(p.Delay(attempt, key...), min(hint, p.withDefaults().Max))
}

// Key hashes a name (an object URL) to a Delay key with 64-bit FNV-1a.
func Key(s string) uint64 {
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * prime
	}
	return h
}

// FNV-1a's 64-bit offset basis and prime.
const offset, prime = 14695981039346656037, 1099511628211

// mix folds one word into an FNV-1a hash, low byte first.
func mix(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (w>>(8*i))&0xff) * prime
	}
	return h
}

// Sleep waits d or until ctx ends, returning ctx's error in the latter
// case (at once for a non-positive d).
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
