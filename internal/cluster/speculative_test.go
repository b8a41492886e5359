package cluster_test

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/refsim"
	"repro/internal/scheduler"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// TestSpeculationRescuesStraggler builds a deterministic straggler: high
// noise makes some attempts run long; with ample idle slots, speculation
// must cut the makespan relative to the same seed without speculation.
func TestSpeculationRescuesStraggler(t *testing.T) {
	mk := func(slowdown float64) *cluster.Result {
		cfg := cluster.Config{
			Nodes: 8, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1,
			Noise: 0.8, Seed: 3, SpeculativeSlowdown: slowdown,
		}
		w := workflow.NewBuilder("w").
			Job("j", 12, 4, 60*time.Second, 120*time.Second).
			MustBuild(0, simtime.FromSeconds(1e6))
		sim, err := cluster.New(cfg, scheduler.NewFIFO(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Submit(w, nil); err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := mk(0)
	spec := mk(1.1)
	if spec.TasksStarted <= base.TasksStarted {
		t.Errorf("speculation launched no duplicates: %d vs %d attempts",
			spec.TasksStarted, base.TasksStarted)
	}
	if spec.Makespan >= base.Makespan {
		t.Errorf("speculative makespan %v not below baseline %v", spec.Makespan, base.Makespan)
	}
}

func TestSpeculationConfigValidation(t *testing.T) {
	for _, v := range []float64{0.5, 1.0, -1} {
		cfg := cluster.Config{Nodes: 1, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1,
			SpeculativeSlowdown: v}
		if _, err := cluster.New(cfg, scheduler.NewFIFO(), nil); err == nil {
			t.Errorf("slowdown %v accepted", v)
		}
	}
}

// TestSpeculationConservation checks exact logical-task accounting under
// speculation: every workflow completes, observer pairing balances, and no
// task finishes twice.
func TestSpeculationConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		cfg := cluster.Config{
			Nodes: 6, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1,
			Noise: 0.6, Seed: int64(trial), SpeculativeSlowdown: 1.2,
		}
		obs := &countingObserver{}
		sim, err := cluster.New(cfg, scheduler.NewFIFO(), obs)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for i := 0; i < 3; i++ {
			w := workflow.NewBuilder("w"+string(rune('0'+i))).
				Job("a", 4+rng.Intn(8), 1+rng.Intn(3), 30*time.Second, 60*time.Second).
				Job("b", 3+rng.Intn(5), 1, 20*time.Second, 40*time.Second, "a").
				MustBuild(simtime.FromSeconds(float64(rng.Intn(20))), simtime.FromSeconds(1e6))
			total += w.TotalTasks()
			if err := sim.Submit(w, nil); err != nil {
				t.Fatal(err)
			}
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, w := range res.Workflows {
			if w.Finish == 0 {
				t.Fatalf("trial %d: %s never finished", trial, w.Name)
			}
		}
		if res.TasksStarted < total {
			t.Fatalf("trial %d: attempts %d < tasks %d", trial, res.TasksStarted, total)
		}
		if obs.started != obs.finished || obs.running != 0 {
			t.Fatalf("trial %d: observer imbalance started=%d finished=%d running=%d",
				trial, obs.started, obs.finished, obs.running)
		}
		if obs.maxRunning > cfg.TotalSlots() {
			t.Fatalf("trial %d: concurrency %d exceeded %d slots", trial, obs.maxRunning, cfg.TotalSlots())
		}
	}
}

// TestSpeculationWithFailures stresses the twin/failure interplay: nodes die
// while duplicates run; the surviving attempt must carry the task without
// double-completion or lost work.
func TestSpeculationWithFailures(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		cfg := cluster.Config{
			Nodes: 5, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1,
			Noise: 0.7, Seed: int64(100 + trial), SpeculativeSlowdown: 1.2,
			Failures: []cluster.Failure{
				{Node: trial % 5, At: simtime.FromSeconds(40), Downtime: 60 * time.Second},
				{Node: (trial + 2) % 5, At: simtime.FromSeconds(90), Downtime: 45 * time.Second},
			},
		}
		obs := &countingObserver{}
		sim, err := cluster.New(cfg, scheduler.NewFIFO(), obs)
		if err != nil {
			t.Fatal(err)
		}
		w := workflow.NewBuilder("w").
			Job("a", 10, 3, 30*time.Second, 60*time.Second).
			Job("b", 6, 2, 25*time.Second, 50*time.Second, "a").
			MustBuild(0, simtime.FromSeconds(1e6))
		if err := sim.Submit(w, nil); err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Workflows[0].Finish == 0 {
			t.Fatalf("trial %d: workflow never finished", trial)
		}
		if obs.started != obs.finished || obs.running != 0 {
			t.Fatalf("trial %d: observer imbalance started=%d finished=%d running=%d",
				trial, obs.started, obs.finished, obs.running)
		}
	}
}

// TestSpeculationBeatsStragglers uses the one-sided straggler model — the
// regime speculative execution exists for: 15% of attempts run 5x long.
// Across seeds, speculation must win clearly on average.
func TestSpeculationBeatsStragglers(t *testing.T) {
	mk := func(seed int64, slowdown float64) time.Duration {
		cfg := cluster.Config{
			Nodes: 8, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1,
			Noise: 0.2, Seed: seed,
			StragglerProb: 0.15, StragglerFactor: 5,
			SpeculativeSlowdown: slowdown,
		}
		w := workflow.NewBuilder("w").
			Job("j", 14, 4, 60*time.Second, 120*time.Second).
			MustBuild(0, simtime.FromSeconds(1e6))
		sim, err := cluster.New(cfg, scheduler.NewFIFO(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Submit(w, nil); err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan.Duration()
	}
	wins, total := 0, 0
	var saved time.Duration
	for seed := int64(0); seed < 12; seed++ {
		base := mk(seed, 0)
		spec := mk(seed, 1.3)
		total++
		if spec < base {
			wins++
			saved += base - spec
		}
	}
	if wins < total*2/3 {
		t.Errorf("speculation won only %d/%d straggler runs", wins, total)
	}
	if saved == 0 {
		t.Error("speculation saved no time across any run")
	}
}

func TestStragglerConfigValidation(t *testing.T) {
	bad := []cluster.Config{
		{Nodes: 1, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1, StragglerProb: -0.1},
		{Nodes: 1, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1, StragglerProb: 1.0, StragglerFactor: 2},
		{Nodes: 1, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1, StragglerProb: 0.1, StragglerFactor: 1.0},
	}
	for i, cfg := range bad {
		if _, err := cluster.New(cfg, scheduler.NewFIFO(), nil); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestSpeculationDetachedTwinTie is a differential run against the frozen
// reference simulator of the one case the launch-sequence tie-break in a
// phase's candidate list decides. Two map slots per node let one heartbeat
// launch two maps of a job on one tick, so both cross their straggler
// threshold at the same instant; the first is twinned onto the other node,
// and that node fails under the twin. The survivor goes back into its
// phase's list (detachTwin) beside its sibling with the same crossing, and
// the next free slot must go to the one launched first, as the reference's
// heap pops it. Noise keeps the two siblings' durations apart, so the wrong
// pick changes the run.
func TestSpeculationDetachedTwinTie(t *testing.T) {
	w := workflow.NewBuilder("w").
		Job("a", 4, 2, 30*time.Second, 20*time.Second).
		MustBuild(0, simtime.FromSeconds(3600))
	for _, c := range []struct {
		seed   int64
		failAt float64
	}{{10, 43}, {17, 40}, {17, 46}, {17, 52}} {
		cfg := cluster.Config{
			Nodes: 2, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1,
			HeartbeatInterval:   3 * time.Second,
			Noise:               0.2,
			StragglerProb:       0.5,
			StragglerFactor:     4,
			SpeculativeSlowdown: 1.2,
			Seed:                c.seed,
			Failures:            []cluster.Failure{{Node: 1, At: simtime.FromSeconds(c.failAt), Downtime: time.Minute}},
		}
		sim, err := cluster.New(cfg, scheduler.NewFIFO(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Submit(w, nil); err != nil {
			t.Fatal(err)
		}
		got, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		sim.Release()
		want, err := refsim.Run(cfg, scheduler.NewFIFO(), nil, []*workflow.Workflow{w}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d, failure at %vs: diverges from the reference:\ngot:  %+v\nwant: %+v", c.seed, c.failAt, got, want)
		}
	}
}
