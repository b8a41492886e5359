package planner

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/workflow"
)

// cacheKey identifies one plan request by value — a comparable struct used
// directly as the map key, so a request hashes nothing of its own: the
// workflow's structural digest was computed once, when it was compiled. Two
// requests share a key exactly when the sequential generator would emit the
// same plan for both, so a hit can be served without simulating:
//
//   - the request shape: generator variant, cap bounds, margin, policy name;
//   - the workflow's relative deadline (plans depend on S_i and D_i only
//     through D_i - S_i, so recurring instances of one template collide);
//   - the DAG structure, as workflow.Digest defines it: task counts,
//     durations and prerequisite sets, jobs in ID order.
//
// Names and dataset paths are deliberately excluded: priority policies rank
// by structure with job-ID tie-breaks, so same-shaped workflows under
// different names yield identical ranks and therefore identical plans.
type cacheKey struct {
	shape            workflow.Digest
	deadline         time.Duration
	margin           uint64 // math.Float64bits, so the key compares bit for bit
	capMaps, capReds int
	policy           string
	variant          byte
}

// Generator variants discriminated by the key. Byte 1 was the single-pool
// variant and byte 3 the fixed-cap estimate; neither is reused, so that no
// key moves.
const variantTyped byte = 2 // GenerateCappedTyped (map/reduce pools)

func keyFor(w *workflow.Workflow, variant byte, capMaps, capReds int, margin float64, policy string) cacheKey {
	return cacheKey{
		shape:    w.Compiled().Digest,
		deadline: w.RelativeDeadline(),
		margin:   math.Float64bits(margin),
		capMaps:  capMaps,
		capReds:  capReds,
		policy:   policy,
		variant:  variant,
	}
}

// String names the request shape for errors: enough to find the workflow.
func (k cacheKey) String() string {
	return fmt.Sprintf("shape %x policy %s caps %d/%d relative deadline %v", k.shape[:6], k.policy, k.capMaps, k.capReds, k.deadline)
}

// planCache is the planner's one plan table: every request takes its one
// mutex, looks its key up once, and finds an entry in one of two states.
//
//   - In flight: some requester is generating the key's plan right now.
//     Later requesters block on the entry's done channel and receive the
//     outcome (singleflight coalescing).
//   - Settled: the plan is ready and is handed out at once (a cache hit).
//
// A miss inserts the in-flight entry in the same critical section as the
// lookup, so no second generation of a key can start while one is running —
// N runner cells asking for one (shape, caps, policy) key cost one simulation
// total, whether they arrive during the generation (coalesced) or after it
// (hit). Only settled entries are in the LRU list and count toward max; with
// max <= 0 an entry is dropped as soon as it settles, so requests still
// coalesce but nothing is cached. A failed generation is never cached either.
//
// The table stores and hands out the same *plan.Plan: served plans are shared
// read-only values (see Planner.Plan), so nothing is copied on the way in or
// out.
type planCache struct {
	mu      sync.Mutex
	max     int
	settled int // entries in the recency list
	byKey   map[cacheKey]*cacheEntry
	// Doubly-linked recency list of settled entries: front = most recently
	// used.
	front, back *cacheEntry
	stats       *obs.PlannerStats
}

// cacheEntry is one key's generation. done is non-nil while the generation is
// in flight and nil once settled. p and err are written exactly once, before
// done is closed; waiters read them only after <-done.
type cacheEntry struct {
	key        cacheKey
	done       chan struct{}
	p          *plan.Plan
	err        error
	prev, next *cacheEntry
}

func newPlanCache(max int, stats *obs.PlannerStats) *planCache {
	return &planCache{max: max, byKey: make(map[cacheKey]*cacheEntry), stats: stats}
}

// shared returns what every requester of p's key but the one that generated
// it is handed: one header over p's Ranks and Reqs whose search diagnostics
// read 0, since those requests ran no simulation.
func shared(p *plan.Plan) *plan.Plan {
	c := *p
	c.SearchIters, c.ProbesCut, c.Simulations = 0, 0, 0
	return &c
}

// serve is the planner's common request path: a settled entry is a hit, an
// in-flight one is waited on, and a missing one makes this requester the
// generation's leader. The clock is read only for an instrumented planner.
func (c *planCache) serve(key cacheKey, gen func() (*plan.Plan, error)) (*plan.Plan, error) {
	var start time.Time
	if c.stats != nil {
		start = time.Now()
	}
	c.mu.Lock()
	e, ok := c.byKey[key]
	if !ok {
		e = &cacheEntry{key: key, done: make(chan struct{})}
		c.byKey[key] = e
		c.mu.Unlock()
		return c.lead(e, start, gen)
	}
	if e.done == nil {
		c.moveToFront(e)
		p := e.p
		c.mu.Unlock()
		if c.stats != nil {
			c.stats.OnPlan(time.Since(start), true)
		}
		return p, nil
	}
	// Same key is generating right now: wait for it instead of simulating
	// again.
	done := e.done
	c.mu.Unlock()
	<-done
	if c.stats != nil {
		c.stats.OnPlanCoalesced(time.Since(start), e.err == nil)
	}
	return e.p, e.err
}

// lead runs the one generation of e's key and publishes its outcome. The
// publication is deferred so that it happens however gen ends: if gen panics
// or exits the goroutine, the waiters get an error naming the request —
// never a hang — nothing is cached, a later request generates afresh, and
// the panic carries on to the leader's caller.
func (c *planCache) lead(e *cacheEntry, start time.Time, gen func() (*plan.Plan, error)) (*plan.Plan, error) {
	if c.stats != nil {
		c.stats.Inflight.Add(1)
	}
	completed := false
	defer func() {
		if !completed {
			e.err = fmt.Errorf("planner: generation panicked or exited (%v)", e.key)
		}
		done := e.done
		c.mu.Lock()
		c.settle(e)
		c.mu.Unlock()
		if c.stats != nil {
			c.stats.Inflight.Add(-1)
		}
		close(done)
	}()
	p, err := gen()
	if err == nil {
		e.p = shared(p)
		if c.stats != nil {
			c.stats.OnPlan(time.Since(start), false)
			c.stats.Probes.Add(int64(p.SearchIters))
			c.stats.ProbesCut.Add(int64(p.ProbesCut))
			c.stats.Simulations.Add(int64(p.Simulations))
		}
	}
	e.err, completed = err, true
	return p, err
}

// settle ends e's flight: a failed or uncacheable entry leaves the table, a
// plan enters the recency list, evicting the least recently used settled
// entry when full. Called with c.mu held.
func (c *planCache) settle(e *cacheEntry) {
	if e.err != nil || c.max <= 0 {
		delete(c.byKey, e.key)
		return
	}
	e.done = nil
	if c.settled == c.max {
		evict := c.back
		c.unlink(evict)
		delete(c.byKey, evict.key)
		c.settled--
		if c.stats != nil {
			c.stats.CacheEvictions.Inc()
		}
	}
	c.pushFront(e)
	c.settled++
}

// len reports how many settled plans the table holds.
func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.settled
}

func (c *planCache) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = c.front
	if c.front != nil {
		c.front.prev = e
	}
	c.front = e
	if c.back == nil {
		c.back = e
	}
}

func (c *planCache) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.front = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.back = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *planCache) moveToFront(e *cacheEntry) {
	if c.front == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
