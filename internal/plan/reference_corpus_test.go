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

// TestKernelMatchesReference is Algorithm 1 against its queue-based referee
// (reference_test.go), forwards and with every instant reversed: random DAGs
// and the planner corpus, every policy, both pool models, the cap ladder and
// limits around each makespan.
func TestKernelMatchesReference(t *testing.T) {
	if plan.RaceEnabled {
		t.Skip("single-threaded and twenty times slower under -race; the race build checks nothing here")
	}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		w := oracle.RandomWorkflow(rng, 1+rng.Intn(30))
		cluster := plan.Caps{Maps: 1 + rng.Intn(40), Reduces: 1 + rng.Intn(20)}
		for _, pol := range priority.All() {
			ranks, err := pol.Rank(w)
			if err != nil {
				t.Fatal(err)
			}
			plan.CheckCapLadder(t, fmt.Sprintf("trial %d %s", trial, pol.Name()), w, ranks, cluster, 1)
		}
	}

	flows, err := workload.Yahoo(workload.DefaultYahooConfig())
	if err != nil {
		t.Fatal(err)
	}
	flows = append(flows, workload.Fig7("fig7", 1.0, simtime.Epoch, simtime.Epoch.Add(45*time.Minute)))
	cluster := plan.Caps{Maps: 300, Reduces: 180}
	for _, w := range flows {
		for _, pol := range priority.All() {
			ranks, err := pol.Rank(w)
			if err != nil {
				t.Fatal(err)
			}
			plan.CheckCapLadder(t, fmt.Sprintf("%s %s", w.Name, pol.Name()), w, ranks, cluster, 1)
		}
	}
}
