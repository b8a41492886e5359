package live

import (
	"math"
	"net/rpc"
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/scheduler"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// wfCounters is one workflow's bookkeeping as a malformed report could
// corrupt it.
type wfCounters struct {
	Jobs               []cluster.JobState
	Scheduled, Running int
	Remaining          int
	Done               bool
	FinishTime         simtime.Time
}

// counters snapshots workflow i under the master's lock.
func (m *master) counters(i int) wfCounters {
	m.core.mu.Lock()
	defer m.core.mu.Unlock()
	ws := m.wfs[i]
	return wfCounters{
		Jobs:      append([]cluster.JobState(nil), ws.Jobs...),
		Scheduled: ws.ScheduledTasks, Running: ws.RunningTasks,
		Remaining: ws.TasksRemaining(), Done: ws.Done,
		FinishTime: ws.FinishTime,
	}
}

// TestMalformedReportsRefused: a report is unchecked RPC input, and net/rpc
// does not recover a panic, so one bad report must neither take a TCP
// JobTracker down nor corrupt a workflow. In process and over TCP, a 2-map +
// 1-reduce workflow with one map running is sent completions naming a
// workflow, job or slot type out of range and a reduce that is not running:
// nothing may change. The running map reported three times retires one map.
// Free-slot counts that would cancel or overflow as a sum still get work.
func TestMalformedReportsRefused(t *testing.T) {
	cfg := Config{
		Nodes: 1, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1,
		HeartbeatInterval: time.Millisecond, TimeScale: 0.0002,
	}
	for _, tcp := range []bool{false, true} {
		name := "in process"
		newCluster := New
		if tcp {
			name, newCluster = "TCP", NewTCP
		}
		c, err := newCluster(cfg, scheduler.NewFIFO())
		if err != nil {
			t.Fatal(err)
		}
		w := workflow.NewBuilder("w").
			Job("j", 2, 1, 10*time.Second, 10*time.Second).
			MustBuild(0, simtime.Epoch.Add(time.Hour))
		if err := c.Submit(w, nil); err != nil {
			t.Fatal(err)
		}
		beat := func(hb Heartbeat) []Assignment { return c.DeliverHeartbeat(hb) }
		if tcp {
			client, err := rpc.Dial("tcp", c.TransportAddr())
			if err != nil {
				t.Fatal(err)
			}
			beat = func(hb Heartbeat) []Assignment {
				var out []Assignment
				if err := client.Call("JobTracker.Heartbeat", hb, &out); err != nil {
					t.Fatalf("%s: heartbeat %+v: %v", name, hb, err)
				}
				return out
			}
			defer client.Close()
			defer c.CloseTransport()
		}
		st := c.jt.(*master)

		first := beat(Heartbeat{FreeMaps: 1})
		if len(first) != 1 {
			t.Fatalf("%s: first offer got %d assignments, want one map", name, len(first))
		}
		a := first[0].ID
		before := st.counters(0)
		for _, bad := range []TaskID{
			{Workflow: 7, Type: cluster.MapSlot},
			{Workflow: -1, Type: cluster.MapSlot},
			{Workflow: 0, Job: 1, Type: cluster.MapSlot},
			{Workflow: 0, Job: -1, Type: cluster.MapSlot},
			{Workflow: 0, Job: 0, Type: 2},
			{Workflow: 0, Job: 0, Type: -1},
			{Workflow: 0, Job: 0, Type: cluster.ReduceSlot},
		} {
			// Without a slot offered the report is booked outside the
			// pipeline; with one, inside it.
			for _, free := range []int{0, 1} {
				if out := beat(Heartbeat{FreeReds: free, Completed: []TaskID{bad}}); len(out) != 0 {
					t.Errorf("%s: report of %+v was assigned %d tasks", name, bad, len(out))
				}
				if got := st.counters(0); !reflect.DeepEqual(got, before) {
					t.Errorf("%s: report of %+v changed the workflow:\n got %+v\nwant %+v", name, bad, got, before)
				}
			}
		}

		beat(Heartbeat{Completed: []TaskID{a, a, a}})
		once := st.counters(0)
		if js := once.Jobs[0]; js.RunningMaps != 0 || js.DoneMaps != 1 || once.Remaining != 2 || once.Done {
			t.Errorf("%s: one map reported three times left %+v, want one map retired", name, once)
		}
		beat(Heartbeat{Completed: []TaskID{a}})
		if got := st.counters(0); !reflect.DeepEqual(got, once) {
			t.Errorf("%s: a fourth report of the retired map changed the workflow:\n got %+v\nwant %+v", name, got, once)
		}

		// Slot counts are tested one type at a time: a sum of MaxInt and
		// MaxInt would wrap, and one of -3 and 2 would cancel.
		second := beat(Heartbeat{FreeMaps: math.MaxInt, FreeReds: math.MaxInt})
		if len(second) != 1 || second[0].ID.Type != cluster.MapSlot {
			t.Fatalf("%s: offer of MaxInt slots got %+v, want the second map", name, second)
		}
		beat(Heartbeat{Completed: []TaskID{second[0].ID}})
		third := beat(Heartbeat{FreeMaps: -3, FreeReds: 2})
		if len(third) != 1 || third[0].ID.Type != cluster.ReduceSlot {
			t.Fatalf("%s: offer of (-3, 2) slots got %+v, want the reduce", name, third)
		}
		beat(Heartbeat{Completed: []TaskID{third[0].ID}})
		if done := st.counters(0); !done.Done || done.Remaining != 0 {
			t.Errorf("%s: the workflow did not finish on its three real completions: %+v", name, done)
		}
	}
}
