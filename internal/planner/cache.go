package planner

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/workflow"
)

// cacheKey identifies one plan request shape by value — a comparable struct
// used directly as the map key, so a request hashes nothing of its own: the
// workflow's structural digest was computed once, when it was compiled. Two
// requests share a key exactly when the sequential generator, run under the
// same job ordering, would emit the same plan for both:
//
//   - the request shape: generator variant, cap bounds, margin;
//   - the workflow's relative deadline (plans depend on S_i and D_i only
//     through D_i - S_i, so recurring instances of one template collide);
//   - the DAG structure, as workflow.Digest defines it: task counts,
//     durations and prerequisite sets, jobs in ID order.
//
// Names and dataset paths are deliberately excluded: priority policies rank
// by structure with job-ID tie-breaks, so same-shaped workflows under
// different names yield identical ranks and therefore identical plans. Policy
// names are excluded too: the generator reads nothing of a policy but its job
// ordering and its name, so the ordering is kept in the entry beside each of
// its plans, and the name only labels the plan served.
type cacheKey struct {
	shape            workflow.Digest
	deadline         time.Duration
	margin           uint64 // math.Float64bits, so the key compares bit for bit
	capMaps, capReds int
	variant          byte
}

// Generator variants discriminated by the key. Byte 1 was the single-pool
// variant and byte 3 the fixed-cap estimate; neither is reused, so that no
// key moves.
const variantTyped byte = 2 // GenerateCappedTyped (map/reduce pools)

func keyFor(w *workflow.Workflow, variant byte, capMaps, capReds int, margin float64) cacheKey {
	return cacheKey{
		shape:    w.Compiled().Digest,
		deadline: w.RelativeDeadline(),
		margin:   math.Float64bits(margin),
		capMaps:  capMaps,
		capReds:  capReds,
		variant:  variant,
	}
}

// request names one request for errors: enough to find the workflow.
func (k cacheKey) request(policy string) string {
	return fmt.Sprintf("shape %x policy %s caps %d/%d relative deadline %v", k.shape[:6], policy, k.capMaps, k.capReds, k.deadline)
}

// planCache is the planner's one plan table: a request takes its one mutex
// and looks its key up once. The entry found holds that shape's plans as
// forms, each tagged with the policy it is served under and the job ordering
// it was simulated under, and each in one of two states.
//
//   - In flight: some requester is generating the form's plan right now.
//     Later requesters block on the form's done channel and receive the
//     outcome (singleflight coalescing).
//   - Settled: the plan is ready and is handed out at once (a cache hit).
//
// A request whose policy names a form of its entry is served from it without
// ranking. Any other request ranks the workflow outside the lock and looks
// again, for a form with equal ranks: settled, it is served from it (a hit),
// and gets a form of its own so its policy's next request is a plain hit; in
// flight, it waits on it. Only a request that finds neither generates. A miss
// inserts its form in the same critical section as the look-up, so no second
// generation of a (shape, ordering) can start while one is running — N
// runner cells asking for it cost one simulation total, whether they arrive
// during the generation (coalesced) or after it (hit). A first request for
// a shape inserts its entry before it has ranked, so a request under another
// policy that finds that flight waits for it and then compares orderings.
//
// Only entries with no flight are in the LRU list, and their plans count
// toward max: an entry leaves the list when a flight starts on it and is put
// back at the front, with its plans, when the last one lands, evicting least
// recently used entries (all plans of an entry go together). With max <= 0 an
// entry is dropped as soon as its flights land, so requests still coalesce
// but nothing is cached. A failed generation is never cached either.
//
// The table stores and hands out the same *plan.Plan: served plans are shared
// read-only values (see Planner.Plan), so nothing is copied on the way in or
// out but the header of a plan served under another policy's name.
type planCache struct {
	mu      sync.Mutex
	max     int
	settled int // plans of the entries in the recency list
	byKey   map[cacheKey]*cacheEntry
	// Doubly-linked recency list of the entries with no flight: front =
	// most recently used.
	front, back *cacheEntry
	stats       *obs.PlannerStats
}

// cacheEntry is one key's plans. The first form is embedded, so a shape
// planned under one policy costs one allocation for its entry.
type cacheEntry struct {
	key        cacheKey
	first      form
	flying     int // forms in flight; the entry is in the recency list iff 0
	plans      int // settled forms
	prev, next *cacheEntry
}

// form is one plan of an entry. done is non-nil while its generation is in
// flight and nil once settled. The form of a failed generation is unlinked,
// or left vacant (done and p nil) if it is the embedded first, which no
// look-up matches. ranks is nil only while the
// first request for a shape has not ranked yet; it, p and err are written
// before done is closed, and waiters read them only after <-done.
type form struct {
	policy string
	ranks  []int
	done   chan struct{}
	p      *plan.Plan
	err    error
	next   *form
}

func (f *form) vacant() bool { return f.done == nil && f.p == nil }

// named returns e's form served under policy, or nil.
func (e *cacheEntry) named(policy string) *form {
	for f := &e.first; f != nil; f = f.next {
		if f.policy == policy && !f.vacant() {
			return f
		}
	}
	return nil
}

// add appends f to e's forms.
func (e *cacheEntry) add(f *form) {
	g := &e.first
	for g.next != nil {
		g = g.next
	}
	g.next = f
}

// drop removes a failed form from e's forms; the embedded first one stays,
// vacant.
func (e *cacheEntry) drop(f *form) {
	for g := &e.first; g.next != nil; g = g.next {
		if g.next == f {
			g.next = f.next
			return
		}
	}
}

func newPlanCache(max int, stats *obs.PlannerStats) *planCache {
	return &planCache{max: max, byKey: make(map[cacheKey]*cacheEntry), stats: stats}
}

// shared returns what every requester of p's form but the one that generated
// it is handed: one header over p's Ranks and Reqs whose search diagnostics
// read 0, since those requests ran no simulation.
func shared(p *plan.Plan) *plan.Plan {
	c := *p
	c.SearchIters, c.ProbesCut, c.Simulations = 0, 0, 0
	return &c
}

// relabel is a shared plan served under another policy with the same job
// ordering: a header over the same arrays that names that policy.
func relabel(p *plan.Plan, policy string) *plan.Plan {
	c := *p
	c.Policy = policy
	return &c
}

// serve is the planner's common request path. A request whose policy has a
// form under key is a hit or waits on it, without ranking; a key not in the
// table makes this requester the leader of the shape's first generation,
// which ranks as it generates. Any other request ranks once and looks again,
// by ordering: it is served from a settled form with equal ranks, waits on
// one in flight (or on a flight not ranked yet), or generates. A flight it
// waited on that failed, or that turned out to plan another ordering, sends
// it round again. The clock is read only for an instrumented planner.
func (c *planCache) serve(key cacheKey, policy string, rank func() ([]int, error), gen func(ranks []int) (*plan.Plan, error)) (*plan.Plan, error) {
	var start time.Time
	if c.stats != nil {
		start = time.Now()
	}
	var ranks []int
	ranked := false
	for {
		c.mu.Lock()
		e, ok := c.byKey[key]
		if !ok {
			e = &cacheEntry{key: key, flying: 1}
			e.first.policy, e.first.ranks, e.first.done = policy, ranks, make(chan struct{})
			c.byKey[key] = e
			c.mu.Unlock()
			if ranked {
				rank = nil
			}
			return c.lead(e, &e.first, start, ranks, rank, gen)
		}
		if f := e.named(policy); f != nil {
			return c.take(e, f, start)
		}
		if !ranked {
			c.mu.Unlock()
			var err error
			if ranks, err = rank(); err != nil {
				return nil, err
			}
			ranked = true
			continue
		}
		var wait *form
	scan:
		for f := &e.first; f != nil; f = f.next {
			switch {
			case f.vacant():
			case f.done != nil && f.ranks == nil: // not ranked yet
				if wait == nil {
					wait = f
				}
			case !slices.Equal(f.ranks, ranks):
			case f.done != nil:
				wait = f
				break scan
			default:
				p := relabel(f.p, policy)
				if e.flying == 0 {
					c.takeOut(e)
				}
				e.add(&form{policy: policy, ranks: f.ranks, p: p})
				e.plans++
				if e.flying == 0 {
					c.place(e)
				}
				c.mu.Unlock()
				if c.stats != nil {
					c.stats.OnPlan(time.Since(start), true)
				}
				return p, nil
			}
		}
		if wait == nil {
			f := &form{policy: policy, ranks: ranks, done: make(chan struct{})}
			if e.flying == 0 {
				c.takeOut(e)
			}
			e.add(f)
			e.flying++
			c.mu.Unlock()
			return c.lead(e, f, start, ranks, nil, gen)
		}
		done := wait.done
		c.mu.Unlock()
		<-done
		if wait.err == nil && slices.Equal(wait.ranks, ranks) {
			if c.stats != nil {
				c.stats.OnPlanCoalesced(time.Since(start), true)
			}
			return relabel(wait.p, policy), nil
		}
	}
}

// take serves a request from its policy's own form: at once if settled,
// after waiting if in flight. Called with c.mu held; releases it.
func (c *planCache) take(e *cacheEntry, f *form, start time.Time) (*plan.Plan, error) {
	if f.done == nil {
		if e.flying == 0 {
			c.moveToFront(e)
		}
		p := f.p
		c.mu.Unlock()
		if c.stats != nil {
			c.stats.OnPlan(time.Since(start), true)
		}
		return p, nil
	}
	// The same request is generating right now: wait for it instead of
	// simulating again.
	done := f.done
	c.mu.Unlock()
	<-done
	if c.stats != nil {
		c.stats.OnPlanCoalesced(time.Since(start), f.err == nil)
	}
	return f.p, f.err
}

// lead runs the one generation of form f of entry e and publishes its
// outcome; given rank, it ranks first. The publication is deferred so
// that it happens however the generation ends: if it panics or exits the
// goroutine, the waiters get an error naming the request — never a hang —
// nothing is cached, a later request generates afresh, and the panic carries
// on to the leader's caller.
func (c *planCache) lead(e *cacheEntry, f *form, start time.Time, ranks []int, rank func() ([]int, error), gen func(ranks []int) (*plan.Plan, error)) (*plan.Plan, error) {
	if c.stats != nil {
		c.stats.Inflight.Add(1)
	}
	completed := false
	defer func() {
		if !completed {
			f.err = fmt.Errorf("planner: generation panicked or exited (%s)", e.key.request(f.policy))
		}
		done := f.done
		c.mu.Lock()
		c.settle(e, f, ranks)
		c.mu.Unlock()
		if c.stats != nil {
			c.stats.Inflight.Add(-1)
		}
		close(done)
	}()
	var p *plan.Plan
	var err error
	if rank != nil {
		ranks, err = rank()
	}
	if err == nil {
		p, err = gen(ranks)
	}
	if err == nil {
		f.p = shared(p)
		if c.stats != nil {
			c.stats.OnPlan(time.Since(start), false)
			c.stats.Probes.Add(int64(p.SearchIters))
			c.stats.ProbesCut.Add(int64(p.ProbesCut))
			c.stats.Simulations.Add(int64(p.Simulations))
		}
	}
	f.err, completed = err, true
	return p, err
}

// settle ends f's flight: a failed form leaves e, a plan joins e's count, and
// when e's last flight lands e goes back into the recency list. Called with
// c.mu held.
func (c *planCache) settle(e *cacheEntry, f *form, ranks []int) {
	f.done = nil
	if f.err != nil {
		e.drop(f)
	} else {
		f.ranks = ranks
		e.plans++
	}
	if e.flying--; e.flying == 0 {
		c.place(e)
	}
}

// takeOut removes e, which is gaining a flight or a plan, from the recency
// list and its plans from the count. Called with c.mu held.
func (c *planCache) takeOut(e *cacheEntry) {
	c.unlink(e)
	c.settled -= e.plans
}

// place puts e, with no flight left, at the front of the recency list,
// evicting the least recently used entries until its plans fit. An entry
// left without plans, or with more than max of its own, leaves the table.
// Called with c.mu held.
func (c *planCache) place(e *cacheEntry) {
	for c.settled+e.plans > c.max && c.back != nil {
		evict := c.back
		c.unlink(evict)
		delete(c.byKey, evict.key)
		c.settled -= evict.plans
		if c.stats != nil {
			c.stats.CacheEvictions.Add(int64(evict.plans))
		}
	}
	if e.plans == 0 || e.plans > c.max {
		delete(c.byKey, e.key)
		return
	}
	c.pushFront(e)
	c.settled += e.plans
}

// len reports how many plans the recency list holds: every settled plan but
// those of entries with a flight.
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
