package planner

import (
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

// TestPlanCacheEvictionOrder drives the LRU list directly through an
// interleaved get/put sequence and checks the exact victim order: eviction
// must follow recency of *use* (gets and duplicate puts both refresh), not
// insertion order.
func TestPlanCacheEvictionOrder(t *testing.T) {
	o := obs.New(obs.NewRegistry(), nil)
	st := o.NewPlannerStats()
	c := newPlanCache(3, st)
	p := fakePlan(1, time.Minute)

	// Fill: recency front-to-back is [2 1 0].
	for i := 0; i < 3; i++ {
		if !c.put(key(i), p) {
			t.Fatalf("put(%d) = false, want true", i)
		}
	}
	// Touch 0 via get -> [0 2 1]; duplicate put of 1 refreshes too -> [1 0 2].
	if _, ok := c.get(key(0)); !ok {
		t.Fatal("get(0): miss, want hit")
	}
	if c.put(key(1), p) {
		t.Fatal("duplicate put(1) = true, want false (entry retained)")
	}
	if got := st.DuplicateFills.Value(); got != 1 {
		t.Fatalf("DuplicateFills = %d, want 1", got)
	}

	// Inserting 3 must evict 2 (the least recently used), then 4 evicts 0.
	for step, tc := range []struct {
		insert  int
		evicted int
	}{
		{insert: 3, evicted: 2},
		{insert: 4, evicted: 0},
	} {
		if !c.put(key(tc.insert), p) {
			t.Fatalf("step %d: put(%d) = false, want true", step, tc.insert)
		}
		if _, ok := c.get(key(tc.evicted)); ok {
			t.Errorf("step %d: key %d still cached, want evicted", step, tc.evicted)
		}
		if got := st.CacheEvictions.Value(); got != int64(step+1) {
			t.Errorf("step %d: CacheEvictions = %d, want %d", step, got, step+1)
		}
	}
	// Survivors: 1 (refreshed by the duplicate put), 3, 4.
	for _, i := range []int{1, 3, 4} {
		if _, ok := c.get(key(i)); !ok {
			t.Errorf("key %d evicted, want cached", i)
		}
	}
	if got := c.len(); got != 3 {
		t.Errorf("len = %d, want 3", got)
	}
}

// TestPlanCacheSingleEntry exercises the list edge case where front == back:
// every insert beyond the first evicts the sole resident.
func TestPlanCacheSingleEntry(t *testing.T) {
	c := newPlanCache(1, nil)
	p := fakePlan(1, time.Minute)
	for i := 0; i < 4; i++ {
		if !c.put(key(i), p) {
			t.Fatalf("put(%d) = false, want true", i)
		}
		if _, ok := c.get(key(i)); !ok {
			t.Fatalf("get(%d): miss, want hit", i)
		}
		if i > 0 {
			if _, ok := c.get(key(i - 1)); ok {
				t.Fatalf("key %d still cached, want evicted", i-1)
			}
		}
		if got := c.len(); got != 1 {
			t.Fatalf("len = %d, want 1", got)
		}
	}
}

// TestPlanCacheNil pins the nil-cache (CacheSize <= 0) contract relied on by
// serve: gets miss, puts report nothing retained, len is zero.
func TestPlanCacheNil(t *testing.T) {
	var c *planCache
	if _, ok := c.get(key(1)); ok {
		t.Error("nil cache get: hit, want miss")
	}
	if c.put(key(1), fakePlan(1, time.Minute)) {
		t.Error("nil cache put = true, want false")
	}
	if got := c.len(); got != 0 {
		t.Errorf("nil cache len = %d, want 0", got)
	}
}
