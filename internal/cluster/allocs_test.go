package cluster_test

// Steady-state allocation pins for the arena simulator core. A pooled
// Simulator replaying a scenario must stay within scenarioAllocBudget heap
// allocations end to end — New (pool draw + reset), Submit, the whole event
// loop (heartbeat serve, dispatch, complete, speculation), and Release. The
// only tolerated allocations are the Result value and its Workflows slice;
// the budget of 3 leaves one spare so an incidental runtime allocation does
// not flake CI. Wired into `make ci` via the alloc-pins target.

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// scenarioAllocBudget is the ISSUE 7 acceptance ceiling: ≤3 heap
// allocations per scenario once the pool and arena are warm.
const scenarioAllocBudget = 3

// pinPolicy is a minimal FIFO policy whose queue capacity is pre-grown, so
// the pin measures the simulator core alone. Real policies allocate their
// own bookkeeping; that cost is theirs, not the arena's.
type pinPolicy struct{ queue []pinEntry }

type pinEntry struct {
	ws  *cluster.WorkflowState
	job workflow.JobID
}

func newPinPolicy() *pinPolicy { return &pinPolicy{queue: make([]pinEntry, 0, 64)} }

func (p *pinPolicy) Name() string                                       { return "pin" }
func (p *pinPolicy) WorkflowAdded(*cluster.WorkflowState, simtime.Time) {}
func (p *pinPolicy) TaskStarted(*cluster.WorkflowState, workflow.JobID, cluster.SlotType, simtime.Time) {
}
func (p *pinPolicy) WorkflowCompleted(*cluster.WorkflowState, simtime.Time) {}

func (p *pinPolicy) JobActivated(ws *cluster.WorkflowState, job workflow.JobID, _ simtime.Time) {
	p.queue = append(p.queue, pinEntry{ws: ws, job: job})
}

func (p *pinPolicy) NextTask(_ simtime.Time, st cluster.SlotType) (*cluster.WorkflowState, workflow.JobID, bool) {
	w := 0
	for _, e := range p.queue {
		js := &e.ws.Jobs[e.job]
		if js.Completed() {
			continue
		}
		p.queue[w] = e
		w++
		if js.Schedulable(st) {
			return e.ws, e.job, true
		}
	}
	p.queue = p.queue[:w]
	return nil, 0, false
}

// measureScenarioAllocs replays the equivalence workload under cfg through
// the pooled simulator and returns the steady-state allocations per run.
// Policies are pre-built outside the measured closure, one per run —
// policies are stateful and must be fresh: two warm-up runs here,
// AllocsPerRun's own warm-up run, then iters measured runs.
func measureScenarioAllocs(t *testing.T, cfg cluster.Config) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("race runtime randomizes sync.Pool reuse; alloc budgets hold only in regular builds")
	}
	flows := equivFlows()
	const iters = 20
	pols := make([]*pinPolicy, iters+3)
	for i := range pols {
		pols[i] = newPinPolicy()
	}
	i := 0
	run := func() {
		pol := pols[i]
		i++
		sim, err := cluster.New(cfg, pol, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range flows {
			if err := sim.Submit(w, nil); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		sim.Release()
	}
	// Warm the pool, arena, and event-heap capacity before measuring:
	// first-run growth is amortized capital, not steady-state cost.
	run()
	run()
	return testing.AllocsPerRun(iters, run)
}

// TestScenarioAllocsInstantDispatch pins the instant-dispatch scenario
// (completion-driven scheduling, the Fig 8 configuration) at the ISSUE 7
// steady-state budget.
func TestScenarioAllocsInstantDispatch(t *testing.T) {
	cfg := cluster.Config{Nodes: 6, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1, Seed: 7}
	if got := measureScenarioAllocs(t, cfg); got > scenarioAllocBudget {
		t.Errorf("instant-dispatch scenario allocates %.1f/run, budget %d", got, scenarioAllocBudget)
	}
}

// TestScenarioAllocsHeartbeatLoop pins the heartbeat-grid hot loop — serve,
// dispatch, complete, plus noise, stragglers, and speculative twins (the
// arena's free-list churn path) — at the same budget.
func TestScenarioAllocsHeartbeatLoop(t *testing.T) {
	cfg := cluster.Config{
		Nodes: 6, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1, Seed: 7,
		HeartbeatInterval: 3 * time.Second,
		Noise:             0.3,
		StragglerProb:     0.15, StragglerFactor: 4,
		SpeculativeSlowdown: 1.3,
	}
	if got := measureScenarioAllocs(t, cfg); got > scenarioAllocBudget {
		t.Errorf("heartbeat scenario allocates %.1f/run, budget %d", got, scenarioAllocBudget)
	}
}
