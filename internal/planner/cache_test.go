package planner

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/plan"
)

// key builds a distinct cacheKey for test entry i.
func key(i int) cacheKey { return cacheKey{capMaps: i} }

// fakePlan builds a minimal plan to put in a cache.
func fakePlan(cap int, makespan time.Duration) *plan.Plan {
	return &plan.Plan{Cap: cap, Makespan: makespan}
}

var errProbe = errors.New("probe: not generating")

// rankOne is the job ordering of the one-job workflows these tests pretend
// to plan.
func rankOne() ([]int, error) { return []int{0}, nil }

// fill requests k from c under policy "P" with a generation that returns p
// and reports whether that generation ran: false means k was settled and the
// request was a hit.
func fill(t *testing.T, c *planCache, k cacheKey, p *plan.Plan) bool {
	t.Helper()
	ran := false
	if _, err := c.serve(k, "P", rankOne, func([]int) (*plan.Plan, error) { ran = true; return p, nil }); err != nil {
		t.Fatalf("serve(%v): %v", k, err)
	}
	return ran
}

// cached reports whether k is settled in c, refreshing its recency as any hit
// does. A miss generates nothing: its generation fails, and a failure is not
// cached, so the table is left as it was.
func cached(c *planCache, k cacheKey) bool {
	_, err := c.serve(k, "P", rankOne, func([]int) (*plan.Plan, error) { return nil, errProbe })
	return err == nil
}

// TestPlanCacheEvictionOrder drives the table directly through an
// interleaved sequence of hits and fills and checks the exact victim order:
// eviction must follow recency of *use* (every hit refreshes), not insertion
// order.
func TestPlanCacheEvictionOrder(t *testing.T) {
	o := obs.New(obs.NewRegistry(), nil)
	st := o.NewPlannerStats()
	c := newPlanCache(3, st)
	p := fakePlan(1, time.Minute)

	// Fill: recency front-to-back is [2 1 0].
	for i := 0; i < 3; i++ {
		if !fill(t, c, key(i), p) {
			t.Fatalf("fill(%d) was a hit, want a generation", i)
		}
	}
	// Touch 0 -> [0 2 1]; a second request for 1 is a hit and refreshes it
	// too -> [1 0 2].
	if !cached(c, key(0)) {
		t.Fatal("key 0: miss, want hit")
	}
	if fill(t, c, key(1), p) {
		t.Fatal("fill(1) generated again, want a hit on the settled entry")
	}

	// Inserting 3 must evict 2 (the least recently used), then 4 evicts 0.
	for step, tc := range []struct {
		insert  int
		evicted int
	}{
		{insert: 3, evicted: 2},
		{insert: 4, evicted: 0},
	} {
		if !fill(t, c, key(tc.insert), p) {
			t.Fatalf("step %d: fill(%d) was a hit, want a generation", step, tc.insert)
		}
		if cached(c, key(tc.evicted)) {
			t.Errorf("step %d: key %d still cached, want evicted", step, tc.evicted)
		}
		if got := st.CacheEvictions.Value(); got != int64(step+1) {
			t.Errorf("step %d: CacheEvictions = %d, want %d", step, got, step+1)
		}
	}
	// Survivors: 1 (refreshed by the hit), 3, 4.
	for _, i := range []int{1, 3, 4} {
		if !cached(c, key(i)) {
			t.Errorf("key %d evicted, want cached", i)
		}
	}
	if got := c.len(); got != 3 {
		t.Errorf("len = %d, want 3", got)
	}
	if got := st.CacheMisses.Value(); got != 5 {
		t.Errorf("CacheMisses = %d, want 5 (one generation per distinct key)", got)
	}
}

// TestPlanCacheSingleEntry exercises the list edge case where front == back:
// every insert beyond the first evicts the sole resident.
func TestPlanCacheSingleEntry(t *testing.T) {
	c := newPlanCache(1, nil)
	p := fakePlan(1, time.Minute)
	for i := 0; i < 4; i++ {
		if !fill(t, c, key(i), p) {
			t.Fatalf("fill(%d) was a hit, want a generation", i)
		}
		if !cached(c, key(i)) {
			t.Fatalf("key %d: miss, want hit", i)
		}
		if i > 0 && cached(c, key(i-1)) {
			t.Fatalf("key %d still cached, want evicted", i-1)
		}
		if got := c.len(); got != 1 {
			t.Fatalf("len = %d, want 1", got)
		}
	}
}

// TestPlanCacheNil pins the CacheSize <= 0 contract: a settled entry leaves
// the table at once, so every sequential request generates and the table
// holds nothing.
func TestPlanCacheNil(t *testing.T) {
	c := newPlanCache(0, nil)
	for i := 0; i < 2; i++ {
		if !fill(t, c, key(1), fakePlan(1, time.Minute)) {
			t.Errorf("request %d was a hit on an uncached table, want a generation", i)
		}
	}
	if got := c.len(); got != 0 {
		t.Errorf("uncached table len = %d, want 0", got)
	}
}

// TestPlanCacheKeepsInFlight: an entry in flight is not in the recency list,
// so it neither counts toward the size nor can be evicted. With room for one
// plan, key A's generation is held while B and then C are generated and
// served; A then completes, every request for A receives A's plan from its
// one generation, and the table never holds more than one plan.
func TestPlanCacheKeepsInFlight(t *testing.T) {
	o := obs.New(obs.NewRegistry(), nil)
	st := o.NewPlannerStats()
	c := newPlanCache(1, st)
	checkLen := func(when string) {
		t.Helper()
		if got := c.len(); got > 1 {
			t.Fatalf("%s: len = %d, want <= 1", when, got)
		}
	}
	a, b := key(1), key(2)
	pa := fakePlan(7, time.Minute)

	started, release := make(chan struct{}), make(chan struct{})
	const waiters = 3
	got := make(chan *plan.Plan, waiters)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := c.serve(a, "P", rankOne, func([]int) (*plan.Plan, error) {
			close(started)
			<-release
			return pa, nil
		}); err != nil {
			t.Error(err)
		}
	}()
	<-started
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := c.serve(a, "P", rankOne, func([]int) (*plan.Plan, error) {
				return nil, errors.New("key A generated a second time")
			})
			if err != nil {
				t.Error(err)
				return
			}
			got <- p
		}()
	}
	checkLen("A in flight")

	if !fill(t, c, b, fakePlan(2, time.Minute)) || !cached(c, b) {
		t.Fatal("B was not generated and then served while A was in flight")
	}
	checkLen("B settled beside A in flight")
	if !fill(t, c, key(3), fakePlan(3, time.Minute)) || cached(c, b) {
		t.Fatal("C did not evict B while A was in flight")
	}
	checkLen("C settled beside A in flight")

	close(release)
	wg.Wait()
	close(got)
	checkLen("A settled")
	var first *plan.Plan
	for p := range got {
		if p.Cap != pa.Cap {
			t.Errorf("a request for A received cap %d, want A's %d", p.Cap, pa.Cap)
		}
		if first == nil {
			first = p
		} else if p != first {
			t.Error("requests for A received different plans, want the one shared value")
		}
	}
	if !cached(c, a) || cached(c, key(3)) {
		t.Error("A did not settle into the table in place of C")
	}
	if got := st.CacheMisses.Value(); got != 3 {
		t.Errorf("CacheMisses = %d, want 3 (A, B and C generated once each)", got)
	}
	if got := st.Inflight.Value(); got != 0 {
		t.Errorf("Inflight = %d once A settled, want 0", got)
	}
}

// TestPlanCacheCountsPlans: max counts plans, not entries. A key served
// under a second policy with the same ordering gains a plan without a
// generation, and the entry's plans are evicted together.
func TestPlanCacheCountsPlans(t *testing.T) {
	o := obs.New(obs.NewRegistry(), nil)
	st := o.NewPlannerStats()
	c := newPlanCache(2, st)
	fill(t, c, key(1), fakePlan(1, time.Minute))
	q, err := c.serve(key(1), "Q", rankOne, func([]int) (*plan.Plan, error) {
		return nil, errors.New("an ordering already planned was generated again")
	})
	if err != nil {
		t.Fatal(err)
	}
	if q.Policy != "Q" || q.Cap != 1 {
		t.Errorf("served %q cap %d, want P's plan under the name Q", q.Policy, q.Cap)
	}
	if got := c.len(); got != 2 {
		t.Errorf("len = %d after one plan under two names, want 2", got)
	}
	fill(t, c, key(2), fakePlan(2, time.Minute))
	if got := st.CacheEvictions.Value(); got != 2 {
		t.Errorf("CacheEvictions = %d, want key 1's two plans", got)
	}
	if got := c.len(); got != 1 || cached(c, key(1)) {
		t.Errorf("len = %d, key 1 cached %v after key 2 evicted it, want 1 and false", got, cached(c, key(1)))
	}
}
