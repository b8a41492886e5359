package scheduler_test

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// TestBaselineOpAllocs pins the baselines' steady state at zero
// allocations: NextTask and TaskStarted on a job that stays startable, and
// on one whose last pending task leaves its set and comes back through a
// requeue.
func TestBaselineOpAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime inflates allocation counts; the zero-alloc pin holds only in regular builds")
	}
	for _, b := range baselines {
		t.Run(b.name, func(t *testing.T) {
			pol := b.pol()
			rq := pol.(cluster.RequeuePolicy)
			var states []*cluster.WorkflowState
			for i, maps := range []int{1, 50, 1, 50} {
				w := workflow.NewBuilder("w").
					Job("a", maps, 1, time.Second, time.Second).
					MustBuild(0, simtime.FromSeconds(float64(100+i%2)))
				ws := cluster.NewWorkflowState(i, w, nil)
				pol.WorkflowAdded(ws, 0)
				ws.ActivateJob(0, simtime.Time(i))
				pol.JobActivated(ws, 0, simtime.Time(i))
				states = append(states, ws)
			}
			for _, ws := range states {
				round := func() {
					ws.StartTask(0, cluster.MapSlot)
					pol.TaskStarted(ws, 0, cluster.MapSlot, 0)
					ws.RequeueTask(0, cluster.MapSlot)
					rq.TaskRequeued(ws, 0, cluster.MapSlot, 0)
					if _, _, ok := pol.NextTask(0, cluster.MapSlot); !ok {
						t.Fatal("NextTask found no map with four startable jobs")
					}
				}
				if n := testing.AllocsPerRun(100, round); n != 0 {
					t.Errorf("%d maps: %.1f allocs per start, requeue and NextTask, want 0", ws.Jobs[0].PendingMaps, n)
				}
			}
		})
	}
}
