package planner

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/plan"
)

// flightGroup coalesces concurrent generations of the same structural key
// (singleflight): the first requester simulates, every requester that
// arrives while that generation is in flight blocks on it and receives the
// shared plan. Combined with the structural cache this gives the shared
// planner its exactly-once property — N runner cells asking for the same
// (shape, caps, policy) key cost one simulation total, whether they arrive
// before (coalesced), during (coalesced), or after (cache hit) the fill.
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
// before done is closed; waiters read them only after <-done.
type flightCall struct {
	done chan struct{}
	p    *plan.Plan
	err  error
}

// serve is the planner's common request path: cache lookup, then coalescing,
// then (for exactly one requester per key) the generation gen. Lock order is
// flight.mu before cache.mu; the leader fills the cache before removing its
// flight entry, so under the flight lock "no entry" implies the cache
// re-check sees any just-completed fill. The clock is read only for an
// instrumented planner.
func (pl *Planner) serve(key cacheKey, gen func() (*plan.Plan, error)) (*plan.Plan, error) {
	var start time.Time
	if pl.stats != nil {
		start = time.Now()
	}
	// Fast path: a settled fill.
	if p, ok := pl.cache.get(key); ok {
		if pl.stats != nil {
			pl.stats.OnPlan(time.Since(start), true)
		}
		return p, nil
	}

	pl.flight.mu.Lock()
	if c, ok := pl.flight.calls[key]; ok {
		// Same key is generating right now: wait for it instead of
		// simulating again.
		pl.flight.mu.Unlock()
		<-c.done
		if pl.stats != nil {
			pl.stats.OnPlanCoalesced(time.Since(start), c.err == nil)
		}
		return c.p, c.err
	}
	// No flight entry. The generation that created the miss may have just
	// finished (fill happens before the entry is removed), so re-check the
	// cache before becoming the leader.
	if p, ok := pl.cache.get(key); ok {
		pl.flight.mu.Unlock()
		if pl.stats != nil {
			pl.stats.OnPlan(time.Since(start), true)
		}
		return p, nil
	}
	c := &flightCall{done: make(chan struct{})}
	pl.flight.calls[key] = c
	pl.flight.mu.Unlock()
	return pl.lead(key, c, start, gen)
}

// lead runs the one generation of key's flight and publishes its outcome.
// The publication is deferred so that it happens however gen ends: if gen
// panics or exits the goroutine, the waiters get an error naming the request
// — never a hang — nothing is cached, a later request generates afresh, and
// the panic carries on to the leader's caller.
func (pl *Planner) lead(key cacheKey, c *flightCall, start time.Time, gen func() (*plan.Plan, error)) (*plan.Plan, error) {
	if pl.stats != nil {
		pl.stats.Inflight.Add(1)
	}
	completed := false
	defer func() {
		if !completed {
			c.err = fmt.Errorf("planner: generation panicked or exited (%v)", key)
		}
		pl.flight.mu.Lock()
		delete(pl.flight.calls, key)
		pl.flight.mu.Unlock()
		if pl.stats != nil {
			pl.stats.Inflight.Add(-1)
		}
		close(c.done)
	}()
	p, err := gen()
	if err == nil {
		c.p = shared(p)
		pl.cache.put(key, c.p)
		if pl.stats != nil {
			pl.stats.OnPlan(time.Since(start), false)
			pl.stats.Probes.Add(int64(p.SearchIters))
			pl.stats.ProbesCut.Add(int64(p.ProbesCut))
		}
	}
	c.err, completed = err, true
	return p, err
}
