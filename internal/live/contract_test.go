package live_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/live"
	"repro/internal/scheduler"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// contractRecorder is FIFO with the order of the cluster.Policy
// notifications checked as a control plane makes them: a workflow arrives
// with no job Ready, each job is announced exactly once and Ready by then,
// and a job's reduces are announced only once its map phase is over.
type contractRecorder struct {
	*scheduler.FIFO
	added     []*cluster.WorkflowState
	activated map[*cluster.WorkflowState][]int
	reduces   map[*cluster.WorkflowState][]int
	broken    []string
}

func newContractRecorder() *contractRecorder {
	return &contractRecorder{
		FIFO:      scheduler.NewFIFO(),
		activated: map[*cluster.WorkflowState][]int{},
		reduces:   map[*cluster.WorkflowState][]int{},
	}
}

func (r *contractRecorder) breach(format string, args ...any) {
	r.broken = append(r.broken, fmt.Sprintf(format, args...))
}

func (r *contractRecorder) WorkflowAdded(ws *cluster.WorkflowState, now simtime.Time) {
	for j := range ws.Jobs {
		if ws.Jobs[j].Ready {
			r.breach("%s: job %d Ready at WorkflowAdded", ws.Spec.Name, j)
		}
	}
	r.added = append(r.added, ws)
	r.activated[ws] = make([]int, len(ws.Jobs))
	r.reduces[ws] = make([]int, len(ws.Jobs))
	r.FIFO.WorkflowAdded(ws, now)
}

func (r *contractRecorder) JobActivated(ws *cluster.WorkflowState, job workflow.JobID, now simtime.Time) {
	if r.activated[ws] == nil {
		r.breach("%s: job %d activated before WorkflowAdded", ws.Spec.Name, job)
		r.activated[ws] = make([]int, len(ws.Jobs))
	}
	if !ws.Jobs[job].Ready {
		r.breach("%s: job %d announced without Ready", ws.Spec.Name, job)
	}
	r.activated[ws][job]++
	r.FIFO.JobActivated(ws, job, now)
}

func (r *contractRecorder) ReducesReady(ws *cluster.WorkflowState, job workflow.JobID, now simtime.Time) {
	if js := &ws.Jobs[job]; !js.MapsDone() || js.PendingReduces == 0 {
		r.breach("%s: ReducesReady for job %d with %d maps pending, %d running, %d reduces pending",
			ws.Spec.Name, job, js.PendingMaps, js.RunningMaps, js.PendingReduces)
	}
	if r.reduces[ws] != nil {
		r.reduces[ws][job]++
	}
	r.FIFO.ReducesReady(ws, job, now)
}

// check reports every breach, then that each of the want workflows arrived
// once and announced each job once and, for a job with maps and reduces,
// its reduces once.
func (r *contractRecorder) check(t *testing.T, want int) {
	t.Helper()
	for _, b := range r.broken {
		t.Error(b)
	}
	if len(r.added) != want {
		t.Fatalf("%d workflows added, want %d", len(r.added), want)
	}
	for _, ws := range r.added {
		for j, spec := range ws.Spec.Jobs {
			if n := r.activated[ws][j]; n != 1 {
				t.Errorf("%s: job %d announced %d times, want once", ws.Spec.Name, j, n)
			}
			want := 0
			if spec.Maps > 0 && spec.Reduces > 0 {
				want = 1
			}
			if n := r.reduces[ws][j]; n != want {
				t.Errorf("%s: job %d ReducesReady %d times, want %d", ws.Spec.Name, j, n, want)
			}
		}
	}
}

// diamondFlow fans a map-and-reduce job out to a map-only and a reduce-only
// job, which join in a fourth.
func diamondFlow(name string) *workflow.Workflow {
	return workflow.NewBuilder(name).
		Job("a", 4, 2, 10*time.Second, 20*time.Second).
		Job("b", 3, 0, 10*time.Second, 0, "a").
		Job("c", 0, 2, 0, 20*time.Second, "a").
		Job("d", 2, 1, 10*time.Second, 20*time.Second, "b", "c").
		MustBuild(simtime.Epoch, simtime.Epoch.Add(2*time.Hour))
}

// TestPolicyContractOrder holds both control planes to the notification
// order cluster.Policy promises: the simulator run to completion, and the
// master driven by a heartbeat script.
func TestPolicyContractOrder(t *testing.T) {
	flows := func() []*workflow.Workflow {
		return []*workflow.Workflow{diamondFlow("w1"), chainFlow("w2", 0, 2*time.Hour), diamondFlow("w3")}
	}
	for _, plane := range []struct {
		name string
		run  func(t *testing.T, pol cluster.Policy, flows []*workflow.Workflow)
	}{
		{"simulator", func(t *testing.T, pol cluster.Policy, flows []*workflow.Workflow) {
			sim, err := cluster.New(cluster.Config{Nodes: 4, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1}, pol, nil)
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
		}},
		{"tracker", func(t *testing.T, pol cluster.Policy, flows []*workflow.Workflow) {
			c, err := live.New(fastConfig(), pol)
			if err != nil {
				t.Fatal(err)
			}
			driveContract(t, c, flows)
		}},
	} {
		t.Run(plane.name, func(t *testing.T) {
			rec := newContractRecorder()
			fl := flows()
			plane.run(t, rec, fl)
			rec.check(t, len(fl))
		})
	}
}

// driveContract submits flows to c and drives them to completion with the
// scripted heartbeats, each report split from its slot offer.
func driveContract(t *testing.T, c *live.Cluster, flows []*workflow.Workflow) {
	t.Helper()
	for _, w := range flows {
		if err := c.Submit(w, nil); err != nil {
			t.Fatal(err)
		}
	}
	driveScripted(t, c, 2, 1, true)
}
