package live

import (
	"math"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/priority"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// reportBytes decodes fuzz input; reading past the end yields zeros.
type reportBytes []byte

func (r *reportBytes) byte() byte {
	if len(*r) == 0 {
		return 0
	}
	c := (*r)[0]
	*r = (*r)[1:]
	return c
}

// int reads one byte as a small signed number, with 0x7f and 0x80 standing
// for the ends of the int range, so counts and ids can be negative or huge.
func (r *reportBytes) int() int {
	switch c := r.byte(); c {
	case 0x7f:
		return math.MaxInt
	case 0x80:
		return math.MinInt
	default:
		return int(int8(c))
	}
}

// FuzzHeartbeatReports feeds arbitrary TaskTracker reports to a sharded WOHA
// tracker with two workflows. The bytes decode into heartbeats whose tracker
// id and free-slot counts are unchecked numbers and whose completions either
// echo a task the tracker assigned earlier (so real work retires, possibly
// more than once) or name any workflow, job, slot type and sequence number.
// Nothing may panic; every assignment must name a real job and slot type and
// no (workflow, job, type) may be handed out more tasks than it has; and
// afterwards no counter may be negative and no job may have finished more
// tasks than it holds.
func FuzzHeartbeatReports(f *testing.F) {
	flows := []*workflow.Workflow{
		workflow.NewBuilder("chain").
			Job("a", 3, 2, 10*time.Second, 20*time.Second).
			Job("b", 2, 1, 10*time.Second, 20*time.Second, "a").
			MustBuild(simtime.Epoch, simtime.Epoch.Add(time.Hour)),
		workflow.NewBuilder("single").
			Job("c", 4, 1, 10*time.Second, 10*time.Second).
			MustBuild(simtime.Epoch, simtime.Epoch.Add(30*time.Minute)),
	}
	plans := make([]*plan.Plan, len(flows))
	for i, w := range flows {
		p, err := plan.GenerateCapped(w, 8, priority.LPF{})
		if err != nil {
			f.Fatal(err)
		}
		plans[i] = p
	}
	// Each heartbeat is tracker, free maps, free reduces, a completion count
	// (mod 4), then per completion a selector byte: even echoes assigned
	// task selector/2, odd is followed by workflow, job, type and sequence.
	f.Add([]byte{0, 4, 4, 0, 1, 0, 0, 2, 0, 2, 0, 0, 3, 0, 2, 4})
	f.Add([]byte{0x7f, 0x7f, 0x7f, 0, 0x80, 0x80, 0x80, 3, 1, 7, 0, 0, 0, 1, 0, 9, 1, 0, 1, 0, 2, 0x7f, 0})
	f.Add([]byte{1, 2, 0, 0, 1, 2, 0, 2, 0, 0, 1, 0, 0, 2, 1, 1, 0, 0, 1, 0, 4, 4, 1, 0, 0, 0, 0, 3, 0, 2, 4, 0, 3, 3})
	// A drain: each beat offers two slots of each type and, after the first,
	// reports the next three tasks assigned, in assignment order.
	drain := []byte{0, 2, 2, 0}
	for k := 0; k < 24; k++ {
		drain = append(drain, byte(k%2), 2, 2, 3, byte(6*k), byte(6*k+2), byte(6*k+4))
	}
	f.Add(drain)
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := New(Config{
			Nodes: 2, MapSlotsPerNode: 2, ReduceSlotsPerNode: 2,
			HeartbeatInterval: time.Millisecond, TimeScale: 0.0002, Shards: 2,
		}, core.NewScheduler(core.Options{Seed: 1}))
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range flows {
			if err := c.Submit(w, plans[i]); err != nil {
				t.Fatal(err)
			}
		}
		type slot struct {
			wf  int
			job workflow.JobID
			typ cluster.SlotType
		}
		handed := map[slot]int{}
		var assigned []TaskID
		r := reportBytes(data)
		for beat := 0; len(r) > 0 && beat < 256; beat++ {
			hb := Heartbeat{Tracker: r.int(), FreeMaps: r.int(), FreeReds: r.int()}
			for n := r.byte() % 4; n > 0; n-- {
				if sel := r.byte(); sel%2 == 0 && len(assigned) > 0 {
					hb.Completed = append(hb.Completed, assigned[int(sel/2)%len(assigned)])
				} else {
					hb.Completed = append(hb.Completed, TaskID{
						Workflow: r.int(), Job: workflow.JobID(r.int()),
						Type: cluster.SlotType(r.int()), Seq: r.int(),
					})
				}
			}
			for _, a := range c.DeliverHeartbeat(hb) {
				id := a.ID
				if id.Workflow < 0 || id.Workflow >= len(flows) || id.Job < 0 || int(id.Job) >= len(flows[id.Workflow].Jobs) {
					t.Fatalf("heartbeat %d: assignment %+v names no job", beat, id)
				}
				job := &flows[id.Workflow].Jobs[id.Job]
				tasks := job.Maps
				switch id.Type {
				case cluster.MapSlot:
				case cluster.ReduceSlot:
					tasks = job.Reduces
				default:
					t.Fatalf("heartbeat %d: assignment %+v has slot type %d", beat, id, id.Type)
				}
				k := slot{id.Workflow, id.Job, id.Type}
				if handed[k]++; handed[k] > tasks {
					t.Fatalf("heartbeat %d: %d tasks of %+v handed out, it has %d", beat, handed[k], k, tasks)
				}
				assigned = append(assigned, id)
			}
		}
		st := c.jt.(*shardedTracker)
		for i, w := range flows {
			got := st.counters(i)
			if got.Scheduled < 0 || got.Running < 0 || got.Remaining < 0 {
				t.Errorf("workflow %d: scheduled %d, running %d, remaining %d, want none negative", i, got.Scheduled, got.Running, got.Remaining)
			}
			for j, js := range got.Jobs {
				job := &w.Jobs[j]
				if js.PendingMaps < 0 || js.RunningMaps < 0 || js.PendingReduces < 0 || js.RunningReduces < 0 {
					t.Errorf("workflow %d job %d: negative count in %+v", i, j, js)
				}
				if js.DoneMaps > job.Maps || js.DoneReduces > job.Reduces {
					t.Errorf("workflow %d job %d: done %d maps / %d reduces of %d / %d", i, j, js.DoneMaps, js.DoneReduces, job.Maps, job.Reduces)
				}
			}
		}
	})
}
