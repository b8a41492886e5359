package cluster_test

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/scheduler"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

func singleJob(t *testing.T, maps, reduces int, mt, rt time.Duration, rel, deadline simtime.Time) *workflow.Workflow {
	t.Helper()
	return workflow.NewBuilder("w").
		Job("only", maps, reduces, mt, rt).
		MustBuild(rel, deadline)
}

func run(t *testing.T, cfg cluster.Config, pol cluster.Policy, ws ...*workflow.Workflow) *cluster.Result {
	t.Helper()
	sim, err := cluster.New(cfg, pol, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, w := range ws {
		if err := sim.Submit(w, nil); err != nil {
			t.Fatalf("Submit(%q): %v", w.Name, err)
		}
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestSingleJobExactTiming(t *testing.T) {
	// One node with 2 map + 1 reduce slots. 4 maps of 10s: waves at 0 and
	// 10 → maps done at 20. 2 reduces of 30s on the single reduce slot:
	// 20-50 and 50-80. Finish at 80s.
	cfg := cluster.Config{Nodes: 1, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1}
	w := singleJob(t, 4, 2, 10*time.Second, 30*time.Second, 0, simtime.FromSeconds(100))
	res := run(t, cfg, scheduler.NewFIFO(), w)

	if got, want := res.Workflows[0].Finish, simtime.FromSeconds(80); got != want {
		t.Errorf("Finish = %v, want %v", got, want)
	}
	if !res.Workflows[0].Met {
		t.Error("deadline missed, want met")
	}
	if got := res.Workflows[0].Workspan; got != 80*time.Second {
		t.Errorf("Workspan = %v, want 80s", got)
	}
	if res.TasksStarted != 6 {
		t.Errorf("TasksStarted = %d, want 6", res.TasksStarted)
	}
	// Busy time: 4 maps x 10s = 40s map-busy, 2 x 30s = 60s reduce-busy.
	if res.MapBusy != 40*time.Second || res.ReduceBusy != 60*time.Second {
		t.Errorf("busy = (%v, %v), want (40s, 60s)", res.MapBusy, res.ReduceBusy)
	}
}

func TestReduceWaitsForMapBarrier(t *testing.T) {
	// 3 maps of 10s on 2 slots finish at 20s; the reduce, despite an idle
	// reduce slot from t=0, must not start before 20s.
	cfg := cluster.Config{Nodes: 1, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1}
	w := singleJob(t, 3, 1, 10*time.Second, 5*time.Second, 0, simtime.FromSeconds(100))
	res := run(t, cfg, scheduler.NewFIFO(), w)
	if got, want := res.Workflows[0].Finish, simtime.FromSeconds(25); got != want {
		t.Errorf("Finish = %v, want %v (reduce must wait for map barrier)", got, want)
	}
}

func TestDependencyBarrier(t *testing.T) {
	// b's tasks may only start after a fully finishes (reduce included).
	cfg := cluster.Config{Nodes: 4, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1}
	w := workflow.NewBuilder("chain").
		Job("a", 2, 1, 10*time.Second, 20*time.Second).
		Job("b", 2, 1, 10*time.Second, 20*time.Second, "a").
		MustBuild(0, simtime.FromSeconds(1000))
	res := run(t, cfg, scheduler.NewFIFO(), w)
	// a: maps 0-10, reduce 10-30. b: maps 30-40, reduce 40-60.
	if got, want := res.Workflows[0].Finish, simtime.FromSeconds(60); got != want {
		t.Errorf("Finish = %v, want %v", got, want)
	}
}

func TestHeartbeatModeDelaysDispatch(t *testing.T) {
	cfg := cluster.Config{Nodes: 2, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1}
	w := func() *workflow.Workflow {
		return singleJob(t, 8, 2, 10*time.Second, 30*time.Second, 0, simtime.FromSeconds(1000))
	}
	instant := run(t, cfg, scheduler.NewFIFO(), w())

	hbCfg := cfg
	hbCfg.HeartbeatInterval = 3 * time.Second
	hb := run(t, hbCfg, scheduler.NewFIFO(), w())

	if hb.Workflows[0].Finish < instant.Workflows[0].Finish {
		t.Errorf("heartbeat finish %v earlier than instant %v", hb.Workflows[0].Finish, instant.Workflows[0].Finish)
	}
	// With 3s heartbeats, dispatch lag is bounded by the interval per wave;
	// 3 waves of dispatch → at most ~4 intervals of extra latency.
	if hb.Workflows[0].Finish > instant.Workflows[0].Finish.Add(15*time.Second) {
		t.Errorf("heartbeat finish %v too far past instant %v", hb.Workflows[0].Finish, instant.Workflows[0].Finish)
	}
}

func TestSubmitterOverheadDelaysActivation(t *testing.T) {
	cfg := cluster.Config{Nodes: 2, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1}
	mk := func() *workflow.Workflow {
		return workflow.NewBuilder("chain").
			Job("a", 1, 1, 10*time.Second, 10*time.Second).
			Job("b", 1, 1, 10*time.Second, 10*time.Second, "a").
			MustBuild(0, simtime.FromSeconds(1000))
	}
	plain := run(t, cfg, scheduler.NewFIFO(), mk())

	subCfg := cfg
	subCfg.SubmitterOverhead = 5 * time.Second
	sub := run(t, subCfg, scheduler.NewFIFO(), mk())

	// Two activations (a at release, b after a): finish shifts by 2x5s.
	want := plain.Workflows[0].Finish.Add(10 * time.Second)
	if sub.Workflows[0].Finish != want {
		t.Errorf("Finish with submitter overhead = %v, want %v", sub.Workflows[0].Finish, want)
	}
}

func TestNoiseBoundedAndDeterministic(t *testing.T) {
	cfg := cluster.Config{Nodes: 2, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1, Noise: 0.2, Seed: 7}
	mk := func() *workflow.Workflow {
		return singleJob(t, 20, 5, 10*time.Second, 30*time.Second, 0, simtime.FromSeconds(10000))
	}
	a := run(t, cfg, scheduler.NewFIFO(), mk())
	b := run(t, cfg, scheduler.NewFIFO(), mk())
	if a.Workflows[0].Finish != b.Workflows[0].Finish {
		t.Errorf("same seed produced different finishes: %v vs %v", a.Workflows[0].Finish, b.Workflows[0].Finish)
	}
	cfg2 := cfg
	cfg2.Seed = 8
	c := run(t, cfg2, scheduler.NewFIFO(), mk())
	if a.Workflows[0].Finish == c.Workflows[0].Finish {
		t.Log("different seeds coincidentally agreed (unlikely but not fatal)")
	}
	// With ±20% noise, busy time must stay within ±20% of nominal.
	nominal := 20*10*time.Second + 5*30*time.Second
	lo := time.Duration(float64(nominal) * 0.8)
	hi := time.Duration(float64(nominal) * 1.2)
	if got := a.MapBusy + a.ReduceBusy; got < lo || got > hi {
		t.Errorf("busy %v outside noise bounds [%v, %v]", got, lo, hi)
	}
}

func TestReleaseTimesRespected(t *testing.T) {
	cfg := cluster.Config{Nodes: 1, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1}
	w := singleJob(t, 2, 1, 10*time.Second, 10*time.Second,
		simtime.FromSeconds(100), simtime.FromSeconds(1000))
	res := run(t, cfg, scheduler.NewFIFO(), w)
	if got, want := res.Workflows[0].Finish, simtime.FromSeconds(120); got != want {
		t.Errorf("Finish = %v, want %v (release at 100s)", got, want)
	}
	if got := res.Workflows[0].Workspan; got != 20*time.Second {
		t.Errorf("Workspan = %v, want 20s", got)
	}
}

func TestConfigErrors(t *testing.T) {
	bad := []cluster.Config{
		{Nodes: 0, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1},
		{Nodes: 1, MapSlotsPerNode: -1, ReduceSlotsPerNode: 1},
		{Nodes: 1, MapSlotsPerNode: 0, ReduceSlotsPerNode: 0},
		{Nodes: 1, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1, Noise: 1.5},
		{Nodes: 1, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1, HeartbeatInterval: -time.Second},
		{Nodes: 1, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1, SubmitterOverhead: -5 * time.Second},
		// Fewer nanoseconds of interval than nodes: two nodes share a phase.
		{Nodes: 8, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1, HeartbeatInterval: 7 * time.Nanosecond},
	}
	for i, cfg := range bad {
		if _, err := cluster.New(cfg, scheduler.NewFIFO(), nil); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	// Non-finite knobs, which every range comparison would let through: the
	// error names the field.
	nonFinite := []struct {
		field string
		set   func(*cluster.Config)
	}{
		{"Noise", func(c *cluster.Config) { c.Noise = math.NaN() }},
		{"StragglerProb", func(c *cluster.Config) { c.StragglerProb, c.StragglerFactor = math.NaN(), 3 }},
		{"SpeculativeSlowdown", func(c *cluster.Config) { c.SpeculativeSlowdown = math.NaN() }},
		{"SpeculativeSlowdown", func(c *cluster.Config) { c.SpeculativeSlowdown = math.Inf(1) }},
		{"StragglerFactor", func(c *cluster.Config) { c.StragglerProb, c.StragglerFactor = 0.1, math.Inf(1) }},
	}
	for _, tc := range nonFinite {
		cfg := cluster.Config{Nodes: 1, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1}
		tc.set(&cfg)
		_, err := cluster.New(cfg, scheduler.NewFIFO(), nil)
		if err == nil || !strings.Contains(err.Error(), tc.field+" = ") {
			t.Errorf("%+v: error %v, want one naming %s", cfg, err, tc.field)
		}
	}
	// One nanosecond per node is enough.
	if sim, err := cluster.New(cluster.Config{Nodes: 8, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1,
		HeartbeatInterval: 8 * time.Nanosecond}, scheduler.NewFIFO(), nil); err != nil {
		t.Errorf("8 nodes on an 8ns heartbeat refused: %v", err)
	} else {
		sim.Release()
	}
	if _, err := cluster.New(cluster.Config{Nodes: 1, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1}, nil, nil); err == nil {
		t.Error("nil policy accepted")
	}
}

func TestLifecycleErrors(t *testing.T) {
	cfg := cluster.Config{Nodes: 1, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1}
	sim, err := cluster.New(cfg, scheduler.NewFIFO(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Invalid workflow rejected.
	bad := &workflow.Workflow{Name: "bad"}
	if err := sim.Submit(bad, nil); err == nil {
		t.Error("invalid workflow accepted")
	}
	w := singleJob(t, 1, 1, time.Second, time.Second, 0, simtime.FromSeconds(100))
	if err := sim.Submit(w, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err == nil {
		t.Error("second Run accepted")
	}
	if err := sim.Submit(w, nil); err == nil {
		t.Error("Submit after Run accepted")
	}
}

func TestStuckWorkflowDetected(t *testing.T) {
	// Map tasks on a cluster with zero map slots can never run.
	cfg := cluster.Config{Nodes: 1, MapSlotsPerNode: 0, ReduceSlotsPerNode: 2}
	sim, err := cluster.New(cfg, scheduler.NewFIFO(), nil)
	if err != nil {
		t.Fatal(err)
	}
	w := singleJob(t, 2, 1, time.Second, time.Second, 0, simtime.FromSeconds(100))
	if err := sim.Submit(w, nil); err != nil {
		t.Fatal(err)
	}
	_, err = sim.Run()
	if err == nil || !strings.Contains(err.Error(), "stuck") {
		t.Errorf("Run error = %v, want stuck-workflow error", err)
	}
}

func TestEmptyRun(t *testing.T) {
	cfg := cluster.Config{Nodes: 1, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1}
	sim, err := cluster.New(cfg, scheduler.NewFIFO(), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workflows) != 0 || res.Makespan != 0 {
		t.Errorf("empty run produced %+v", res)
	}
	if res.MissRatio() != 0 || res.Utilization() != 0 {
		t.Error("empty run metrics nonzero")
	}
}

// countingObserver verifies observer callback pairing.
type countingObserver struct {
	started, finished int
	running           int
	maxRunning        int
}

func (o *countingObserver) TaskStarted(_ simtime.Time, _ *cluster.WorkflowState, _ workflow.JobID, _ cluster.SlotType, _ time.Duration) {
	o.started++
	o.running++
	if o.running > o.maxRunning {
		o.maxRunning = o.running
	}
}

func (o *countingObserver) TaskFinished(_ simtime.Time, _ *cluster.WorkflowState, _ workflow.JobID, _ cluster.SlotType) {
	o.finished++
	o.running--
}

func TestObserverSeesEveryTask(t *testing.T) {
	cfg := cluster.Config{Nodes: 2, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1}
	obs := &countingObserver{}
	sim, err := cluster.New(cfg, scheduler.NewFIFO(), obs)
	if err != nil {
		t.Fatal(err)
	}
	w := workflow.NewBuilder("w").
		Job("a", 5, 3, 10*time.Second, 10*time.Second).
		Job("b", 4, 2, 10*time.Second, 10*time.Second, "a").
		MustBuild(0, simtime.FromSeconds(10000))
	if err := sim.Submit(w, nil); err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if obs.started != 14 || obs.finished != 14 {
		t.Errorf("observer saw %d starts, %d finishes, want 14 each", obs.started, obs.finished)
	}
	if obs.running != 0 {
		t.Errorf("running = %d at end, want 0", obs.running)
	}
	// At most 4 map + 2 reduce slots can be busy simultaneously.
	if obs.maxRunning > cfg.TotalSlots() {
		t.Errorf("maxRunning = %d exceeds %d slots", obs.maxRunning, cfg.TotalSlots())
	}
	if res.TasksStarted != obs.started {
		t.Errorf("TasksStarted = %d, observer %d", res.TasksStarted, obs.started)
	}
}

func TestSlotCapacityNeverExceeded(t *testing.T) {
	// Saturate a small cluster with several workflows; the observer's
	// concurrent-task high-water mark must respect slot capacity.
	cfg := cluster.Config{Nodes: 2, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1}
	obs := &countingObserver{}
	sim, err := cluster.New(cfg, scheduler.NewFIFO(), obs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		w := workflow.NewBuilder("w"+string(rune('0'+i))).
			Job("j", 20, 10, 7*time.Second, 13*time.Second).
			MustBuild(simtime.FromSeconds(float64(i)), simtime.FromSeconds(100000))
		if err := sim.Submit(w, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if obs.maxRunning > cfg.TotalSlots() {
		t.Errorf("maxRunning = %d exceeds capacity %d", obs.maxRunning, cfg.TotalSlots())
	}
	if obs.started != 5*30 {
		t.Errorf("started = %d, want 150", obs.started)
	}
}

func TestUtilizationFullySaturated(t *testing.T) {
	// One job whose tasks exactly tile the slots: utilization must be 1.
	cfg := cluster.Config{Nodes: 1, MapSlotsPerNode: 2, ReduceSlotsPerNode: 0}
	w := workflow.NewBuilder("tile").
		Job("j", 4, 0, 10*time.Second, 0).
		MustBuild(0, simtime.FromSeconds(1000))
	res := run(t, cfg, scheduler.NewFIFO(), w)
	if got := res.Utilization(); got != 1.0 {
		t.Errorf("Utilization = %v, want 1.0", got)
	}
	if got := res.MapUtilization(); got != 1.0 {
		t.Errorf("MapUtilization = %v, want 1.0", got)
	}
}

func TestResultMetrics(t *testing.T) {
	cfg := cluster.Config{Nodes: 1, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1}
	// Deadline at 15s; the job needs 10+10=20s → tardiness 5s.
	w := singleJob(t, 1, 1, 10*time.Second, 10*time.Second, 0, simtime.FromSeconds(15))
	res := run(t, cfg, scheduler.NewFIFO(), w)
	if res.MissRatio() != 1.0 {
		t.Errorf("MissRatio = %v, want 1", res.MissRatio())
	}
	if res.MaxTardiness() != 5*time.Second || res.TotalTardiness() != 5*time.Second {
		t.Errorf("tardiness = (%v, %v), want (5s, 5s)", res.MaxTardiness(), res.TotalTardiness())
	}
	if res.DeadlineMisses() != 1 {
		t.Errorf("DeadlineMisses = %d, want 1", res.DeadlineMisses())
	}
}
