package planner

import (
	"runtime"
	"testing"

	"repro/internal/priority"
)

// The benchmarks measure admission throughput over the Yahoo+Fig7 corpus in
// three configurations the acceptance numbers compare: the seed-equivalent
// sequential path, the speculative parallel search (wins scale with cores),
// and a warm structural cache (BenchmarkPlanHit, the template-heavy regime).

func benchPlans(b *testing.B, pl *Planner) {
	flows := corpus(b)
	pol := priority.HLF{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := flows[i%len(flows)]
		if _, err := pl.Plan(w, testCluster, pol); err != nil {
			b.Fatalf("Plan: %v", err)
		}
	}
}

func BenchmarkPlanSequential(b *testing.B) {
	benchPlans(b, New(Config{}))
}

func BenchmarkPlanParallel(b *testing.B) {
	benchPlans(b, New(Config{Workers: runtime.GOMAXPROCS(0)}))
}

// BenchmarkPlanHit is the cache-hit path alone: every request finds its plan
// settled and is handed the shared value.
func BenchmarkPlanHit(b *testing.B) {
	flows := corpus(b)
	pol := priority.HLF{}
	pl := New(Config{CacheSize: 2 * len(flows)})
	for _, w := range flows {
		if _, err := pl.Plan(w, testCluster, pol); err != nil {
			b.Fatalf("warm-up Plan: %v", err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := flows[i%len(flows)]
		if _, err := pl.Plan(w, testCluster, pol); err != nil {
			b.Fatalf("Plan: %v", err)
		}
	}
}

func BenchmarkPlanAll(b *testing.B) {
	flows := corpus(b)
	pol := priority.HLF{}
	pl := New(Config{Workers: runtime.GOMAXPROCS(0)})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.PlanAll(flows, testCluster, pol); err != nil {
			b.Fatalf("PlanAll: %v", err)
		}
	}
}
