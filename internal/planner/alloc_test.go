package planner

import (
	"runtime"
	"testing"

	"repro/internal/priority"
)

// TestColdPlanAllocs pins what a cold capped typed plan allocates, averaged
// over the planner test corpus through a caching planner: the returned Plan
// and its two slices, the shared header the cache and later requests get, the
// cache node, the flight entry and its channel, and the ranking's two slices
// — nine, plus whatever the map and the pools grow by (9.1 to 10.0 measured).
// Not a Plan per probe (88.9 once), not a cached copy, and no per-call
// dependents table or topological sort (26.0 before the compiled form).
func TestColdPlanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime inflates allocation counts; pin holds in regular builds")
	}
	flows := corpus(t)
	pol := priority.HLF{}
	// Warm the kernel pool and every lazily derived workflow cache.
	warm := New(Config{CacheSize: 2 * len(flows)})
	for _, w := range flows {
		if _, err := warm.Plan(w, testCluster, pol); err != nil {
			t.Fatal(err)
		}
	}
	pl := New(Config{CacheSize: 2 * len(flows)})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, w := range flows {
		if _, err := pl.Plan(w, testCluster, pol); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	got := float64(after.Mallocs-before.Mallocs) / float64(len(flows))
	t.Logf("%.1f allocations per cold plan over %d workflows", got, len(flows))
	if limit := 11.0; got > limit {
		t.Errorf("%.1f allocations per cold plan, want <= %.1f", got, limit)
	}
}

// TestCacheHitAllocs pins the warm hit: with no Obs attached a request whose
// plan is settled builds its key from the workflow's compiled digest, finds
// the entry and is handed the shared plan — nothing is hashed, cloned or
// allocated.
func TestCacheHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime inflates allocation counts; pin holds in regular builds")
	}
	flows := corpus(t)
	pol := priority.HLF{}
	pl := New(Config{CacheSize: 2 * len(flows)})
	for _, w := range flows {
		if _, err := pl.Plan(w, testCluster, pol); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	got := testing.AllocsPerRun(10*len(flows), func() {
		if _, err := pl.Plan(flows[i%len(flows)], testCluster, pol); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if got != 0 {
		t.Errorf("%.2f allocations per warm cache hit, want 0", got)
	}
}
