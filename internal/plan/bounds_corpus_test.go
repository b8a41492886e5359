package plan_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/oracle"
	"repro/internal/plan"
	"repro/internal/priority"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// TestCapBoundsBracketMakespan holds the search's two bounds to the kernel
// they stand in for: over random DAGs and the planner corpus (Yahoo and the
// Fig 7 topology), in both pool models and at every cap of the ladder, the
// lower bound never exceeds the simulated makespan and the upper bound is
// never below it. A bound that fails here would let the search answer a
// question wrongly, and the plan would differ from the oracle's.
func TestCapBoundsBracketMakespan(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 30; trial++ {
		w := oracle.RandomWorkflow(rng, 1+rng.Intn(30))
		cluster := plan.Caps{Maps: 1 + rng.Intn(40), Reduces: 1 + rng.Intn(20)}
		for _, pol := range priority.All() {
			ranks, err := pol.Rank(w)
			if err != nil {
				t.Fatal(err)
			}
			plan.CheckCapBounds(t, fmt.Sprintf("trial %d %s cluster %+v", trial, pol.Name(), cluster), w, ranks, cluster)
		}
	}

	flows, err := workload.Yahoo(workload.DefaultYahooConfig())
	if err != nil {
		t.Fatal(err)
	}
	flows = append(flows, workload.Fig7("fig7", 1.0, simtime.Epoch, simtime.Epoch.Add(45*time.Minute)))
	cluster := plan.Caps{Maps: 300, Reduces: 180}
	pols := priority.All()
	for i, w := range flows {
		pol := pols[i%len(pols)]
		ranks, err := pol.Rank(w)
		if err != nil {
			t.Fatal(err)
		}
		plan.CheckCapBounds(t, fmt.Sprintf("%s %s", w.Name, pol.Name()), w, ranks, cluster)
	}
}

// FuzzCapBounds fuzzes the bracket from a seeded DAG shape and cluster caps,
// in both pool models at every cap of the ladder.
func FuzzCapBounds(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(12), uint8(6))
	f.Add(int64(2), uint8(30), uint8(60), uint8(30))
	f.Add(int64(3), uint8(1), uint8(1), uint8(1))
	f.Add(int64(4), uint8(18), uint8(3), uint8(40))
	f.Fuzz(func(t *testing.T, seed int64, jobs, maps, reduces uint8) {
		rng := rand.New(rand.NewSource(seed))
		w := oracle.RandomWorkflow(rng, 1+int(jobs)%40)
		cluster := plan.Caps{Maps: 1 + int(maps)%96, Reduces: 1 + int(reduces)%48}
		pol := priority.All()[int(seed&0x7fffffff)%len(priority.All())]
		ranks, err := pol.Rank(w)
		if err != nil {
			t.Fatal(err)
		}
		plan.CheckCapBounds(t, fmt.Sprintf("seed %d %s cluster %+v", seed, pol.Name(), cluster), w, ranks, cluster)
	})
}
