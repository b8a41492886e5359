package cluster_test

// Pins for the stepping primitives (step.go): driving a simulator instant by
// instant through Peek/StepTo must be indistinguishable from Run, SubmitLive
// must refuse releases behind the clock, and LoadView must account the work
// a half-run cluster still owes.

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/scheduler"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// TestStepToMatchesRun drives one simulator with Run and a second, fed the
// same workload, one instant at a time via Peek + StepTo; the Results must be
// byte-identical. StepTo returns the events it executed: with heartbeats on,
// those and the ticks counted for sleeping nodes make up SimulatedEvents.
func TestStepToMatchesRun(t *testing.T) {
	base := cluster.Config{
		Nodes: 4, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1,
		Noise: 0.2, Seed: 21,
		Failures: []cluster.Failure{{Node: 2, At: simtime.FromSeconds(40), Downtime: 30 * time.Second}},
	}
	for _, tc := range []struct {
		name string
		mut  func(*cluster.Config)
	}{
		{"instant", func(*cluster.Config) {}},
		{"heartbeat", func(cc *cluster.Config) { cc.HeartbeatInterval = 3 * time.Second }},
		{"heartbeat+speculation", func(cc *cluster.Config) {
			cc.HeartbeatInterval = 3 * time.Second
			cc.SubmitterOverhead = 3 * time.Second
			cc.StragglerProb, cc.StragglerFactor, cc.SpeculativeSlowdown = 0.2, 4, 1.5
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			flows := equivFlows()

			runSim, err := cluster.New(cfg, scheduler.NewEDF(), nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range flows {
				if err := runSim.Submit(w, nil); err != nil {
					t.Fatal(err)
				}
			}
			want, err := runSim.Run()
			if err != nil {
				t.Fatal(err)
			}
			runSim.Release()

			stepSim, err := cluster.New(cfg, scheduler.NewEDF(), nil)
			if err != nil {
				t.Fatal(err)
			}
			ins := obs.New(obs.NewRegistry(), nil)
			stepSim.SetInstrumentation(ins)
			for _, w := range flows {
				if err := stepSim.Submit(w, nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := stepSim.Start(); err != nil {
				t.Fatal(err)
			}
			steps, executed := 0, 0
			for {
				at, ok := stepSim.Peek()
				if !ok {
					break
				}
				n := stepSim.StepTo(at)
				if n == 0 {
					t.Fatalf("StepTo(%v) applied no events despite Peek", at)
				}
				if now := stepSim.Now(); now != at {
					t.Fatalf("clock at %v after StepTo(%v)", now, at)
				}
				executed += n
				steps++
			}
			got, err := stepSim.Finish()
			if err != nil {
				t.Fatal(err)
			}
			stepSim.Release()

			if steps < 2 {
				t.Fatalf("stepped %d instants; workload too trivial to pin anything", steps)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("stepped run diverged from Run:\nrun:  %+v\nstep: %+v", want, got)
			}
			slept := int(ins.SimHeartbeatsSuppressed("quiescent").Value())
			if executed+slept != got.SimulatedEvents {
				t.Errorf("StepTo executed %d events and %d ticks were slept through, but SimulatedEvents = %d",
					executed, slept, got.SimulatedEvents)
			}
			if (slept > 0) != (cfg.HeartbeatInterval > 0) {
				t.Errorf("%d ticks slept through with heartbeat interval %v", slept, cfg.HeartbeatInterval)
			}
		})
	}
}

// TestSubmitLiveAtProcessedInstant injects a workflow released at the very
// instant StepTo has just been through, which is also a grid point of a
// sleeping node. That node's tick of the instant is behind the arrival — a
// simulator that executes every tick ran it inside StepTo — so the node can
// serve the newcomer one interval later at the earliest.
func TestSubmitLiveAtProcessedInstant(t *testing.T) {
	cfg := cluster.Config{
		Nodes: 2, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1,
		HeartbeatInterval: 4 * time.Second, // node 0 ticks at 0, 4, 8 …, node 1 at 2, 6, 10 …
	}
	sim, err := cluster.New(cfg, scheduler.NewFIFO(), nil)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string, maps int, d time.Duration, release simtime.Time) *workflow.Workflow {
		return workflow.NewBuilder(name).Job("j", maps, 0, d, 0).MustBuild(release, simtime.FromSeconds(1000))
	}
	// Node 0 takes the long map at 0 and sleeps beside a free map slot; node
	// 1 takes the 6 s map at 2, so that the only event at 8 is its completion.
	for _, w := range []*workflow.Workflow{
		mk("long", 1, 100*time.Second, 0),
		mk("short", 1, 6*time.Second, simtime.FromSeconds(2)),
	} {
		if err := sim.Submit(w, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	sim.StepTo(simtime.FromSeconds(8))
	if now := sim.Now(); now != simtime.FromSeconds(8) {
		t.Fatalf("clock at %v after StepTo(8s), want the completion at 8s", now)
	}
	// Three 5 s maps: node 1 starts two at 10, node 0 the third at 12.
	if err := sim.SubmitLive(mk("late", 3, 5*time.Second, simtime.FromSeconds(8)), nil); err != nil {
		t.Fatal(err)
	}
	sim.StepTo(simtime.MaxTime)
	res, err := sim.Finish()
	if err != nil {
		t.Fatal(err)
	}
	sim.Release()
	if got, want := res.Workflows[2].Finish, simtime.FromSeconds(17); got != want {
		t.Errorf("late workflow finished at %v, want %v (node 0 must not serve it at 8s)", got, want)
	}
}

// TestSubmitLiveGuards covers SubmitLive's contract edges: before Start it is
// plain Submit, after Start it refuses releases behind the clock, and Start
// itself refuses to run twice.
func TestSubmitLiveGuards(t *testing.T) {
	cfg := cluster.Config{
		Nodes: 2, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1,
		HeartbeatInterval: 3 * time.Second, Seed: 1,
	}
	sim, err := cluster.New(cfg, scheduler.NewFIFO(), nil)
	if err != nil {
		t.Fatal(err)
	}
	early := workflow.NewBuilder("early").
		Job("a", 2, 1, 5*time.Second, 5*time.Second).
		MustBuild(0, simtime.FromSeconds(600))
	if err := sim.SubmitLive(early, nil); err != nil {
		t.Fatalf("SubmitLive before Start: %v", err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err == nil {
		t.Error("second Start succeeded, want error")
	}
	sim.StepTo(simtime.MaxTime)
	if sim.Now() <= 0 {
		t.Fatalf("clock still at %v after draining", sim.Now())
	}
	stale := workflow.NewBuilder("stale").
		Job("a", 1, 1, time.Second, time.Second).
		MustBuild(0, simtime.FromSeconds(600))
	if err := sim.SubmitLive(stale, nil); err == nil {
		t.Error("SubmitLive with release behind the clock succeeded, want error")
	}
	late := workflow.NewBuilder("late").
		Job("a", 1, 1, time.Second, time.Second).
		MustBuild(sim.Now().Add(time.Minute), sim.Now().Add(time.Hour))
	if err := sim.SubmitLive(late, nil); err != nil {
		t.Fatalf("SubmitLive ahead of the clock: %v", err)
	}
	sim.StepTo(simtime.MaxTime)
	res, err := sim.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workflows) != 2 || !res.Workflows[1].Met {
		t.Errorf("late workflow outcome %+v, want 2 completed workflows", res.Workflows)
	}
	sim.Release()
}

// TestLoadViewAccountsBacklog checks LoadView before, during, and after a
// run: a freshly started cluster owes every submitted task, and a drained
// cluster owes nothing with all slots free.
func TestLoadViewAccountsBacklog(t *testing.T) {
	cfg := cluster.Config{
		Nodes: 2, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1,
		HeartbeatInterval: 3 * time.Second, Seed: 1,
	}
	sim, err := cluster.New(cfg, scheduler.NewFIFO(), nil)
	if err != nil {
		t.Fatal(err)
	}
	w := workflow.NewBuilder("w").
		Job("a", 4, 2, 10*time.Second, 20*time.Second).
		MustBuild(0, simtime.FromSeconds(600))
	if err := sim.Submit(w, nil); err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	l := sim.LoadView()
	if l.ActiveWorkflows != 1 || l.PendingTasks != 6 {
		t.Errorf("pre-run load %+v, want 1 active workflow with 6 pending tasks", l)
	}
	if want := 4*10*time.Second + 2*20*time.Second; l.Backlog != want {
		t.Errorf("pre-run backlog %v, want %v", l.Backlog, want)
	}
	if l.FreeMaps != 4 || l.FreeReduces != 2 || l.MapSlots != 4 || l.ReduceSlots != 2 {
		t.Errorf("pre-run slots %+v, want all free", l)
	}
	sim.StepTo(simtime.MaxTime)
	l = sim.LoadView()
	if l.ActiveWorkflows != 0 || l.PendingTasks != 0 || l.RunningTasks != 0 || l.Backlog != 0 {
		t.Errorf("drained load %+v, want everything zero", l)
	}
	if l.FreeMaps != 4 || l.FreeReduces != 2 {
		t.Errorf("drained slots %+v, want all free", l)
	}
	if _, err := sim.Finish(); err != nil {
		t.Fatal(err)
	}
	sim.Release()
}

// TestSubmitLiveAmongLaneHeartbeats injects a workflow while the event queue
// holds heartbeats in both places at once: the first workflow has just
// finished, so the nodes that have ticked since are parked and the rest still
// have their next tick in the queue's FIFO lane. The second workflow is
// released on the grid of the next node to tick — at that very tick, or two
// intervals on — so its front-band arrival must sort ahead of a heartbeat at
// the same instant. SubmitLive re-arms the parked nodes in node order, which
// is not tick order around the release's phase, so some re-arms land behind
// the lane's tail and fall back to the heap, as do the drained skips of the
// still-armed nodes behind them. However many nodes are parked, the run must
// equal, event for event, the one where both workflows were submitted up
// front.
func TestSubmitLiveAmongLaneHeartbeats(t *testing.T) {
	cfg := cluster.Config{
		Nodes: 8, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1,
		HeartbeatInterval: 3 * time.Second, SubmitterOverhead: 2 * time.Second,
		Noise: 0.2, StragglerProb: 0.1, StragglerFactor: 3, SpeculativeSlowdown: 1.5,
		Seed: 5,
	}
	first := equivFlows()[0]
	var lanePushes, fallbacks int64
	for c := 0; c < 2*cfg.Nodes; c++ {
		parked, ahead := c/2, time.Duration(c%2)*2*cfg.HeartbeatInterval
		live, err := cluster.New(cfg, scheduler.NewEDF(), nil)
		if err != nil {
			t.Fatal(err)
		}
		o := obs.New(obs.NewRegistry(), nil)
		live.SetInstrumentation(o)
		if err := live.Submit(first, nil); err != nil {
			t.Fatal(err)
		}
		if err := live.Start(); err != nil {
			t.Fatal(err)
		}
		// Run the first workflow out, then let `parked` nodes tick and park.
		step := func() {
			at, ok := live.Peek()
			if !ok {
				t.Fatalf("parked=%d: queue drained early", parked)
			}
			live.StepTo(at)
		}
		for live.LoadView().ActiveWorkflows > 0 {
			step()
		}
		for i := 0; i < parked; i++ {
			step()
		}
		next, ok := live.Peek()
		if !ok {
			t.Fatalf("parked=%d: no heartbeat left in the queue to share an instant with", parked)
		}
		release := next.Add(ahead)
		late := workflow.NewBuilder("late").
			Job("a", 9, 3, 20*time.Second, 30*time.Second).
			Job("b", 4, 2, 10*time.Second, 15*time.Second, "a").
			MustBuild(release, release.Add(time.Hour))
		if err := live.SubmitLive(late, nil); err != nil {
			t.Fatal(err)
		}
		live.StepTo(simtime.MaxTime)
		got, err := live.Finish()
		if err != nil {
			t.Fatal(err)
		}
		live.Release()
		lanePushes += o.SimEventLanePushes().Value()
		fallbacks += o.SimEventLaneFallbacks().Value()

		pre, err := cluster.New(cfg, scheduler.NewEDF(), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []*workflow.Workflow{first, late} {
			if err := pre.Submit(w, nil); err != nil {
				t.Fatal(err)
			}
		}
		want, err := pre.Run()
		if err != nil {
			t.Fatal(err)
		}
		pre.Release()
		if !reflect.DeepEqual(want, got) {
			t.Errorf("parked=%d ahead=%v: live injection diverged from pre-run submission:\npre:  %+v\nlive: %+v", parked, ahead, want, got)
		}
	}
	if lanePushes == 0 || fallbacks == 0 {
		t.Errorf("%d lane pushes, %d fallbacks over the sweep: it must exercise both", lanePushes, fallbacks)
	}
}
