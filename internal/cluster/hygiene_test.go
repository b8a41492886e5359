package cluster_test

// Pooled-simulator instrumentation hygiene: a simulator drawn back out of
// the pool must not leak the previous run's attempt/drain/arena tallies into
// a fresh registry, and must reproduce the previous run's result exactly.
// This pins the Release() contract the arena refactor tightened — Release
// zeroes the per-run tallies and counter wiring before pooling, so the
// second run's flush starts from zero.

import (
	"reflect"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/scheduler"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// simMetrics are the simulator-owned series a run flushes, read through
// the typed handles of a re-registered obs.SimStats (re-registering returns
// the series the run wrote); equal values across two identical runs on the
// same pooled simulator prove no tally survived Release.
var simMetrics = []struct {
	name string
	read func(obs.SimStats) int64
}{
	{"ArenaCapacity", func(s obs.SimStats) int64 { return s.ArenaCapacity.Value() }},
	{"ArenaReuses", func(s obs.SimStats) int64 { return s.ArenaReuses.Value() }},
	{"ArenaGrows", func(s obs.SimStats) int64 { return s.ArenaGrows.Value() }},
	{"DrainBatches", func(s obs.SimStats) int64 { return s.DrainBatches.Value() }},
	{"DrainCoalesced", func(s obs.SimStats) int64 { return s.DrainCoalesced.Value() }},
	{"SpecGateSkips", func(s obs.SimStats) int64 { return s.SpecGateSkips.Value() }},
	{"quiescent", func(s obs.SimStats) int64 { return s.Suppressed.With("quiescent").Value() }},
}

func TestReleaseReuseInstrumentationHygiene(t *testing.T) {
	// A collection between Release and the rerun empties sync.Pool and the
	// rerun then starts cold; hold the collector off so the warm-capacity
	// assertions below test Release, not GC timing.
	gcPercent := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(gcPercent) })
	cfg := cluster.Config{
		Nodes: 4, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1, Seed: 3,
		HeartbeatInterval:   2 * time.Second,
		Noise:               0.25,
		StragglerProb:       0.2,
		StragglerFactor:     3,
		SpeculativeSlowdown: 1.2,
	}
	flows := []*workflow.Workflow{
		workflow.NewBuilder("w1").
			Job("a", 8, 3, 20*time.Second, 30*time.Second).
			Job("b", 5, 2, 15*time.Second, 25*time.Second, "a").
			MustBuild(0, simtime.FromSeconds(600)),
		workflow.NewBuilder("w2").
			Job("a", 6, 2, 25*time.Second, 20*time.Second).
			MustBuild(simtime.FromSeconds(10), simtime.FromSeconds(500)),
	}
	once := func() (*cluster.Result, map[string]int64) {
		o := obs.New(obs.NewRegistry(), nil)
		sim, err := cluster.New(cfg, scheduler.NewFIFO(), nil)
		if err != nil {
			t.Fatal(err)
		}
		sim.SetInstrumentation(o)
		for _, w := range flows {
			if err := sim.Submit(w, nil); err != nil {
				t.Fatal(err)
			}
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		sim.Release() // the second call draws this state back out
		vals := make(map[string]int64)
		st := o.NewSimStats()
		for _, m := range simMetrics {
			vals[m.name] = m.read(st)
		}
		return res, vals
	}
	firstRes, firstVals := once()
	secondRes, secondVals := once()

	if !reflect.DeepEqual(firstRes, secondRes) {
		t.Errorf("pooled reuse changed the result:\nfirst:  %+v\nsecond: %+v", firstRes, secondRes)
	}
	// Identical runs flush identical drain, gate and quiescent tallies into
	// their fresh registries: any surplus in the second run is prior-run
	// state leaking through the pool.
	for _, name := range []string{
		"DrainBatches", "DrainCoalesced", "SpecGateSkips", "quiescent",
	} {
		if firstVals[name] != secondVals[name] {
			t.Errorf("%s: first run flushed %d, pooled rerun flushed %d (Release leaked state)",
				name, firstVals[name], secondVals[name])
		}
	}
	// This is a heartbeat run with speculation on, so all three moved.
	for _, name := range []string{"DrainBatches", "SpecGateSkips", "quiescent"} {
		if firstVals[name] == 0 {
			t.Errorf("%s never moved; instrumentation not wired", name)
		}
	}
	// Free-list reuse is within-run recycling, deterministic for identical
	// runs regardless of pool warmth; a tally surviving Release would
	// inflate the second run's count.
	if firstVals["ArenaReuses"] != secondVals["ArenaReuses"] {
		t.Errorf("arena reuses: first run %d, pooled rerun %d (Release leaked state)",
			firstVals["ArenaReuses"], secondVals["ArenaReuses"])
	}
	if secondVals["ArenaReuses"] == 0 {
		t.Error("run reported zero arena reuses; reuse accounting broken")
	}
	// Pool-warmth assertions hold only when sync.Pool is deterministic —
	// the race runtime intentionally drops Puts (see race_on_test.go).
	if !raceEnabled {
		// The warm rerun has the first run's capacity and must not grow; a
		// nonzero value means either a leaked tally or a capacity reset bug.
		if got := secondVals["ArenaGrows"]; got != 0 {
			t.Errorf("pooled rerun reported %d arena grows, want 0 (warm capacity)", got)
		}
		// Identical runs reach the same attempt high-water mark.
		if firstVals["ArenaCapacity"] != secondVals["ArenaCapacity"] {
			t.Errorf("arena capacity: first run %d, pooled rerun %d",
				firstVals["ArenaCapacity"], secondVals["ArenaCapacity"])
		}
	}
}

// TestReleaseDetachesInstrumentation pins that Release severs the counter
// wiring: running a released-and-redrawn simulator WITHOUT instrumentation
// must not touch the old registry.
func TestReleaseDetachesInstrumentation(t *testing.T) {
	cfg := cluster.Config{Nodes: 2, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1, Seed: 1}
	w := workflow.NewBuilder("w").
		Job("a", 2, 1, 5*time.Second, 5*time.Second).
		MustBuild(0, simtime.FromSeconds(300))
	o := obs.New(obs.NewRegistry(), nil)

	sim, err := cluster.New(cfg, scheduler.NewFIFO(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sim.SetInstrumentation(o)
	if err := sim.Submit(w, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	sim.Release()
	batches := o.NewSimStats().DrainBatches.Value()
	if batches == 0 {
		t.Fatal("instrumented run flushed nothing")
	}

	sim2, err := cluster.New(cfg, scheduler.NewFIFO(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim2.Submit(w, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sim2.Run(); err != nil {
		t.Fatal(err)
	}
	sim2.Release()
	if got := o.NewSimStats().DrainBatches.Value(); got != batches {
		t.Errorf("uninstrumented pooled run moved the old registry: %d -> %d", batches, got)
	}
}
