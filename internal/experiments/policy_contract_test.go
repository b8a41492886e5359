package experiments

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/cluster/refsim"
	"repro/internal/planner"
	"repro/internal/runner"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// contractRecorder wraps a policy and checks the sentence in
// cluster.Policy.NextTask that heartbeat-mode sleeping rests on: between two
// answers for one slot type, ok may differ only if a workflow arrived, a job
// activated, a map phase ended, a task was requeued or a task started, and
// may turn from false to true only at one of the first four.
type contractRecorder struct {
	cluster.Policy
	t    *testing.T
	name string
	// asked and last hold the previous answer per slot type; gained and
	// changed count the events since it that could add work, or alter it.
	asked           [2]bool
	last            [2]bool
	gained, changed [2]int
	flips           int
}

func (r *contractRecorder) gain() {
	for st := range r.gained {
		r.gained[st]++
		r.changed[st]++
	}
}

func (r *contractRecorder) WorkflowAdded(ws *cluster.WorkflowState, now simtime.Time) {
	r.gain()
	r.Policy.WorkflowAdded(ws, now)
}

func (r *contractRecorder) JobActivated(ws *cluster.WorkflowState, job workflow.JobID, now simtime.Time) {
	r.gain()
	r.Policy.JobActivated(ws, job, now)
}

func (r *contractRecorder) ReducesReady(ws *cluster.WorkflowState, job workflow.JobID, now simtime.Time) {
	r.gain()
	if rp, ok := r.Policy.(cluster.ReducePhasePolicy); ok {
		rp.ReducesReady(ws, job, now)
	}
}

func (r *contractRecorder) TaskRequeued(ws *cluster.WorkflowState, job workflow.JobID, st cluster.SlotType, now simtime.Time) {
	r.gain()
	if rq, ok := r.Policy.(cluster.RequeuePolicy); ok {
		rq.TaskRequeued(ws, job, st, now)
	}
}

func (r *contractRecorder) TaskStarted(ws *cluster.WorkflowState, job workflow.JobID, st cluster.SlotType, now simtime.Time) {
	for st := range r.changed {
		r.changed[st]++
	}
	r.Policy.TaskStarted(ws, job, st, now)
}

func (r *contractRecorder) NextTask(now simtime.Time, st cluster.SlotType) (*cluster.WorkflowState, workflow.JobID, bool) {
	ws, job, ok := r.Policy.NextTask(now, st)
	if r.asked[st] && ok != r.last[st] {
		r.flips++
		if r.changed[st] == 0 {
			r.t.Errorf("%s: at %v ok for %v slots went %v → %v with no arrival, activation, map-phase end, requeue or task start between",
				r.name, now, st, r.last[st], ok)
		} else if ok && r.gained[st] == 0 {
			r.t.Errorf("%s: at %v the policy found a %v task it had just refused to have, and only task starts lie between",
				r.name, now, st)
		}
	}
	r.asked[st], r.last[st] = true, ok
	r.gained[st], r.changed[st] = 0, 0
	return ws, job, ok
}

// TestHeartbeatPolicyContract drives the reference simulator, which executes
// every tick and so asks every question the live core leaves out, with the
// recorder around each of the six policies and each of wohaVariants, over the
// scenarios of TestQuiescentTicksMatchReference.
func TestHeartbeatPolicyContract(t *testing.T) {
	flips := map[string]int{}
	for seed := int64(1); seed <= 40; seed++ {
		cc, flows := quiescentScenario(rand.New(rand.NewSource(seed)))
		var cells []runner.Cell
		for _, spec := range AllSchedulers() {
			cells = append(cells, ScenarioCell(spec.Name, cc, flows, spec, seed, nil, planner.New(planner.Config{})))
		}
		for _, v := range wohaVariants {
			cells = append(cells, wohaVariantCell("WOHA-LPF/"+v.name, cc, flows, seed, v.opts))
		}
		for i := range cells {
			cell := &cells[i]
			rec := &contractRecorder{Policy: cell.Policy(), t: t, name: fmt.Sprintf("%s/seed%d", cell.Name, seed)}
			if _, err := refsim.Run(cc, rec, nil, flows, cellPlans(t, cell)); err != nil {
				t.Fatalf("%s: %v", rec.name, err)
			}
			flips[cell.Name] += rec.flips
		}
	}
	for name, n := range flips {
		if n == 0 {
			t.Errorf("%s: ok never changed in 40 scenarios; the recorder checked nothing", name)
		}
	}
}

// refusalRecorder wraps a policy on an instant-dispatch run and counts the
// questions the simulator asks it. The simulator must not ask NextTask(st)
// again after a refusal of st until a workflow arrives, a job activates, a
// map phase ends or a task is requeued: by the NextTask contract the answer
// would be the same refusal.
type refusalRecorder struct {
	cluster.Policy
	t    *testing.T
	name string
	// refused[st] is set by a refusal of st and cleared by any event that
	// can give the policy work.
	refused     [2]bool
	calls, hits int
}

func (r *refusalRecorder) gain() { r.refused = [2]bool{} }

func (r *refusalRecorder) WorkflowAdded(ws *cluster.WorkflowState, now simtime.Time) {
	r.gain()
	r.Policy.WorkflowAdded(ws, now)
}

func (r *refusalRecorder) JobActivated(ws *cluster.WorkflowState, job workflow.JobID, now simtime.Time) {
	r.gain()
	r.Policy.JobActivated(ws, job, now)
}

func (r *refusalRecorder) ReducesReady(ws *cluster.WorkflowState, job workflow.JobID, now simtime.Time) {
	r.gain()
	if rp, ok := r.Policy.(cluster.ReducePhasePolicy); ok {
		rp.ReducesReady(ws, job, now)
	}
}

func (r *refusalRecorder) TaskRequeued(ws *cluster.WorkflowState, job workflow.JobID, st cluster.SlotType, now simtime.Time) {
	r.gain()
	if rq, ok := r.Policy.(cluster.RequeuePolicy); ok {
		rq.TaskRequeued(ws, job, st, now)
	}
}

func (r *refusalRecorder) NextTask(now simtime.Time, st cluster.SlotType) (*cluster.WorkflowState, workflow.JobID, bool) {
	if r.refused[st] {
		r.t.Errorf("%s: at %v asked for a %v task again, with no arrival, activation, map-phase end or requeue since the last refusal",
			r.name, now, st)
	}
	ws, job, ok := r.Policy.NextTask(now, st)
	r.calls++
	if ok {
		r.hits++
	} else {
		r.refused[st] = true
	}
	return ws, job, ok
}

// TestInstantDispatchSkipsSettledRefusals counts, on the seed-1 Fig 8 cells,
// the NextTask calls instant dispatch makes: none repeats a settled refusal,
// so nearly every call places a task.
func TestInstantDispatchSkipsSettledRefusals(t *testing.T) {
	cells, err := Fig8Cells(DefaultFig8Config())
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		c := &cells[i]
		rec := &refusalRecorder{Policy: c.Policy(), t: t, name: c.Name}
		c.Policy = func() cluster.Policy { return rec }
		runLive(t, c, cellPlans(t, c), nil)
		if ratio := float64(rec.hits) / float64(rec.calls); ratio < 0.95 {
			t.Errorf("%s: %d of %d NextTask calls placed a task (%.3f), want ≥ 0.95",
				c.Name, rec.hits, rec.calls, ratio)
		}
	}
}
