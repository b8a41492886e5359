package priority_test

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/oracle"
	"repro/internal/priority"
	"repro/internal/simtime"
	"repro/internal/workflow"
	"repro/internal/workload"
)

// yahooAndFig7 is the planner's corpus under the given seed.
func yahooAndFig7(t testing.TB, seed int64) []*workflow.Workflow {
	t.Helper()
	cfg := workload.DefaultYahooConfig()
	cfg.Seed = seed
	flows, err := workload.Yahoo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return append(flows, workload.Fig7("fig7", 1.0, simtime.Epoch, simtime.Epoch.Add(45*time.Minute)))
}

// TestRanksMatchOracle holds the three policies, which read their keys from
// the workflow's compiled form and sort them as they are, to the ranking they
// replaced: keys re-derived per call, converted to float64, stable-sorted.
func TestRanksMatchOracle(t *testing.T) {
	var flows []*workflow.Workflow
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 60; i++ {
		flows = append(flows, oracle.RandomWorkflow(rng, 1+rng.Intn(40)))
	}
	for seed := int64(1); seed <= 8; seed++ {
		flows = append(flows, yahooAndFig7(t, seed)...)
	}
	for _, w := range flows {
		for _, pol := range priority.All() {
			want, err := oracle.Ranks(w, pol.Name())
			if err != nil {
				t.Fatal(err)
			}
			for call := 0; call < 2; call++ { // a second call must not have been disturbed by the first
				got, err := pol.Rank(w)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s %s call %d: ranks %v, want %v", w.Name, pol.Name(), call, got, want)
				}
			}
		}
	}
}

var rankSink []int

// BenchmarkRank ranks the planner corpus under all three policies, warm:
// every workflow compiled, so this is the share of a cold plan that ranking
// still costs.
func BenchmarkRank(b *testing.B) {
	flows := yahooAndFig7(b, workload.DefaultYahooConfig().Seed)
	for _, pol := range priority.All() {
		b.Run(pol.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ranks, err := pol.Rank(flows[i%len(flows)])
				if err != nil {
					b.Fatal(err)
				}
				rankSink = ranks
			}
		})
	}
}
