package planner

import (
	"runtime"
	"testing"

	"repro/internal/priority"
)

// TestColdPlanAllocs pins what a cold capped typed plan allocates, averaged
// over the planner test corpus through a caching planner: the returned Plan
// and its two slices, the cache's copy, the request's bookkeeping and the
// policy's ranking — not a Plan per probe, which is what 88.9 allocations a
// plan used to be. The pin is half of that.
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
	if limit := 44.45; got > limit {
		t.Errorf("%.1f allocations per cold plan, want <= %.2f (half of 88.9)", got, limit)
	}
}
