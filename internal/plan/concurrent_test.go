package plan_test

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/plan"
	"repro/internal/priority"
	"repro/internal/simtime"
	"repro/internal/workflow"
	"repro/internal/workload"
)

// flowAnswers is everything one pass asks the package about one workflow,
// under every policy: both capped generators' encoded plans and search
// counts, and a bound kernel's makespans on a few caps of both pool models,
// limited and not (a within answer counts as 1).
type flowAnswers struct {
	plans [][]byte
	nums  []int64
}

// answerCorpus runs one pass over flows starting at flow first and wrapping,
// so concurrent passes work on different workflows at any moment; the
// answers are filed by workflow, not by visit order.
func answerCorpus(flows []*workflow.Workflow, cluster plan.Caps, first int) ([]flowAnswers, error) {
	out := make([]flowAnswers, len(flows))
	for n := range flows {
		i := (first + n) % len(flows)
		w, a := flows[i], &out[i]
		for _, pol := range priority.All() {
			typed, err := plan.GenerateCappedTyped(w, cluster, pol, 0.85)
			if err != nil {
				return nil, err
			}
			single, err := plan.GenerateCappedMargin(w, cluster.Total(), pol, 0.85)
			if err != nil {
				return nil, err
			}
			a.plans = append(a.plans, typed.Encode(), single.Encode())
			a.nums = append(a.nums, int64(typed.SearchIters), int64(typed.ProbesCut), int64(single.SearchIters), int64(single.ProbesCut))

			ranks, err := pol.Rank(w)
			if err != nil {
				return nil, err
			}
			k, err := plan.Bind(w, ranks)
			if err != nil {
				return nil, err
			}
			for _, c := range []int{2, cluster.Total() / 7, cluster.Total() / 2, cluster.Total()} {
				for _, limit := range []time.Duration{plan.Unlimited, w.RelativeDeadline() / 2} {
					for _, typed := range []bool{true, false} {
						var ms time.Duration
						var within bool
						if typed {
							ms, within, err = k.MakespanTyped(plan.TypedCapsFor(cluster, c), limit)
						} else {
							ms, within, err = k.Makespan(c, limit)
						}
						if err != nil {
							k.Release()
							return nil, err
						}
						a.nums = append(a.nums, int64(ms))
						if within {
							a.nums = append(a.nums, 1)
						} else {
							a.nums = append(a.nums, 0)
						}
					}
				}
			}
			k.Release()
		}
	}
	return out, nil
}

// TestConcurrentPlanningMatchesSerial has several goroutines plan and probe
// one shared corpus at once — through both capped generators and bound
// kernels, all drawing on the package's pooled kernels and search state —
// and demands the answers of a serial pass. Under -race (make race) it is
// the check that nothing pooled is shared between live users.
func TestConcurrentPlanningMatchesSerial(t *testing.T) {
	flows, err := workload.Yahoo(workload.DefaultYahooConfig())
	if err != nil {
		t.Fatal(err)
	}
	flows = append(flows, workload.Fig7("fig7", 1.0, simtime.Epoch, simtime.Epoch.Add(45*time.Minute)))
	cluster := plan.Caps{Maps: 120, Reduces: 60}
	want, err := answerCorpus(flows, cluster, 0)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 4
	got := make([][]flowAnswers, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], errs[g] = answerCorpus(flows, cluster, g*len(flows)/goroutines)
		}()
	}
	wg.Wait()
	for g := range goroutines {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for i := range flows {
			if !reflect.DeepEqual(got[g][i], want[i]) {
				t.Errorf("goroutine %d: workflow %s answered differently from the serial pass", g, flows[i].Name)
			}
		}
	}
}
