package planner

import (
	"sync"
	"time"

	"repro/internal/plan"
)

// flightGroup coalesces concurrent generations of the same structural key
// (singleflight): the first requester simulates, every requester that
// arrives while that generation is in flight blocks on it and receives an
// independent clone. Combined with the structural cache this gives the
// shared planner its exactly-once property — N runner cells asking for the
// same (shape, caps, policy) key cost one simulation total, whether they
// arrive before (coalesced), during (coalesced), or after (cache hit) the
// fill.
//
// Coalescing works with or without the cache: with CacheSize <= 0 only
// requests that overlap an in-flight generation are deduplicated; with a
// cache the fill lands there before the flight entry is removed, so a
// requester can never slip between "flight entry gone" and "cache filled"
// and regenerate — which is what holds the duplicate-fill counter at zero.
type flightGroup struct {
	mu    sync.Mutex
	calls map[cacheKey]*flightCall
}

// flightCall is one in-flight generation. p and err are written exactly once,
// before done is closed; waiters read them only after <-done. waiters is
// guarded by flightGroup.mu and can no longer grow once the call has been
// removed from the map.
type flightCall struct {
	done    chan struct{}
	waiters int
	p       *plan.Plan
	err     error
}

// serve is the planner's common request path: cache lookup, then coalescing,
// then (for exactly one requester per key) the generation gen. Lock order is
// flight.mu before cache.mu; the leader fills the cache before removing its
// flight entry, so under the flight lock "no entry" implies the cache
// re-check sees any just-completed fill.
func (pl *Planner) serve(key cacheKey, start time.Time, gen func() (*plan.Plan, error)) (*plan.Plan, error) {
	// Fast path: a settled fill. Hits clone on the way out.
	if p, ok := pl.cache.get(key); ok {
		pl.stats.OnPlan(time.Since(start), true)
		return p, nil
	}

	pl.flight.mu.Lock()
	if c, ok := pl.flight.calls[key]; ok {
		// Same key is generating right now: wait for it instead of
		// simulating again.
		c.waiters++
		pl.flight.mu.Unlock()
		<-c.done
		if c.err != nil {
			return nil, c.err
		}
		p := served(c.p) // like a cache hit: this request ran no simulations
		pl.stats.OnPlanCoalesced(time.Since(start))
		return p, nil
	}
	// No flight entry. The generation that created the miss may have just
	// finished (fill happens before the entry is removed), so re-check the
	// cache before becoming the leader.
	if p, ok := pl.cache.get(key); ok {
		pl.flight.mu.Unlock()
		pl.stats.OnPlan(time.Since(start), true)
		return p, nil
	}
	c := &flightCall{done: make(chan struct{})}
	if pl.flight.calls == nil {
		pl.flight.calls = make(map[cacheKey]*flightCall)
	}
	pl.flight.calls[key] = c
	pl.flight.mu.Unlock()
	if pl.stats != nil {
		pl.stats.Inflight.Add(1)
	}

	p, err := gen()
	if err == nil {
		pl.cache.put(key, p)
		pl.recordGenerated(start, p)
	}

	pl.flight.mu.Lock()
	delete(pl.flight.calls, key)
	waiters := c.waiters
	pl.flight.mu.Unlock()
	if pl.stats != nil {
		pl.stats.Inflight.Add(-1)
	}
	if waiters > 0 && err == nil {
		// Publish a private copy: the leader's caller owns p and may mutate
		// it while waiters are still cloning.
		c.p = p.Clone()
	}
	c.err = err
	close(c.done)
	return p, err
}
