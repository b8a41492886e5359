package experiments

// Golden parity harness for the struct-of-arrays simulator core: every cell
// of the committed figure corpus (the 18-cell Fig 8 sweep and the six Fig 11
// scheduler runs) plus a mode-coverage matrix (heartbeat grid, failures,
// noise + stragglers + speculation, locality + delay scheduling, and the
// benchmark's big_heartbeat configuration with all of it at once) is executed
// on both the live arena core and the frozen pre-refactor simulator in
// internal/cluster/refsim. The two must agree to the byte: reflect.DeepEqual
// over the full *cluster.Result (met/miss vectors, tardiness, busy time,
// attempt and event counts) and byte-equal rendered figure tables.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/refsim"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/runner"
	"repro/internal/simtime"
)

// cellPlans materializes a cell's plans once; both cores share them (plans
// are immutable and the simulator never mutates workflow specs).
func cellPlans(t *testing.T, c *runner.Cell) []*plan.Plan {
	t.Helper()
	if c.Plans == nil {
		return nil
	}
	plans, err := c.Plans()
	if err != nil {
		t.Fatalf("cell %q: plans: %v", c.Name, err)
	}
	return plans
}

// runLive executes a cell on the live (arena / batched-drain) core through
// the same New + Submit + Run + Release sequence the runner uses.
func runLive(t *testing.T, c *runner.Cell, plans []*plan.Plan, ob cluster.Observer) *cluster.Result {
	t.Helper()
	sim, err := cluster.New(c.Config, c.Policy(), ob)
	if err != nil {
		t.Fatalf("cell %q: new: %v", c.Name, err)
	}
	for i, w := range c.Flows {
		var p *plan.Plan
		if i < len(plans) {
			p = plans[i]
		}
		if err := sim.Submit(w, p); err != nil {
			t.Fatalf("cell %q: submit: %v", c.Name, err)
		}
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatalf("cell %q: run: %v", c.Name, err)
	}
	sim.Release()
	return res
}

// assertCellParity runs one cell on both cores (fresh policy each — policies
// are stateful) and requires identical results. Returns the live result so
// sweep-level figure accumulation reuses the run.
func assertCellParity(t *testing.T, c *runner.Cell) (*cluster.Result, *cluster.Result) {
	t.Helper()
	plans := cellPlans(t, c)
	live := runLive(t, c, plans, nil)
	ref, err := refsim.Run(c.Config, c.Policy(), nil, c.Flows, plans)
	if err != nil {
		t.Fatalf("cell %q: refsim: %v", c.Name, err)
	}
	if !reflect.DeepEqual(live, ref) {
		t.Fatalf("cell %q: live core diverges from reference simulator:\nlive: %+v\nref:  %+v", c.Name, live, ref)
	}
	return live, ref
}

// TestArenaCoreMatchesReferenceFig8 proves the SoA core reproduces the full
// Fig 8 corpus byte-for-byte: every cell's Result is DeepEqual to the frozen
// reference, the per-workflow met/miss vectors match exactly, and the three
// rendered figure tables built from each side are byte-identical.
func TestArenaCoreMatchesReferenceFig8(t *testing.T) {
	cfg := DefaultFig8Config()
	cells, err := Fig8Cells(cfg)
	if err != nil {
		t.Fatalf("Fig8Cells: %v", err)
	}
	newResult := func() *Fig8Result {
		return &Fig8Result{
			Config:    cfg,
			MissRatio: make(map[string][]float64),
			MaxTard:   make(map[string][]time.Duration),
			TotalTard: make(map[string][]time.Duration),
		}
	}
	liveFig, refFig := newResult(), newResult()
	specs := AllSchedulers()
	for _, spec := range specs {
		liveFig.Order = append(liveFig.Order, spec.Name)
		refFig.Order = append(refFig.Order, spec.Name)
	}
	per := len(cfg.Sizes)
	for i := range cells {
		c := &cells[i]
		live, ref := assertCellParity(t, c)
		// Explicit met/miss vector check — DeepEqual above subsumes it, but
		// a divergence here names the exact workflow that flipped.
		for k := range live.Workflows {
			if live.Workflows[k].Met != ref.Workflows[k].Met {
				t.Errorf("cell %q: workflow %d (%s) met=%v on live core, %v on reference",
					c.Name, k, live.Workflows[k].Name, live.Workflows[k].Met, ref.Workflows[k].Met)
			}
		}
		name := specs[i/per].Name
		liveFig.MissRatio[name] = append(liveFig.MissRatio[name], live.MissRatio())
		liveFig.MaxTard[name] = append(liveFig.MaxTard[name], live.MaxTardiness())
		liveFig.TotalTard[name] = append(liveFig.TotalTard[name], live.TotalTardiness())
		refFig.MissRatio[name] = append(refFig.MissRatio[name], ref.MissRatio())
		refFig.MaxTard[name] = append(refFig.MaxTard[name], ref.MaxTardiness())
		refFig.TotalTard[name] = append(refFig.TotalTard[name], ref.TotalTardiness())
	}
	tables := []struct {
		name string
		of   func(*Fig8Result) *Table
	}{
		{"miss", (*Fig8Result).MissTable},
		{"max-tardiness", (*Fig8Result).MaxTardTable},
		{"total-tardiness", (*Fig8Result).TotalTardTable},
	}
	for _, tb := range tables {
		var liveBuf, refBuf bytes.Buffer
		if err := tb.of(liveFig).Render(&liveBuf); err != nil {
			t.Fatalf("render live %s: %v", tb.name, err)
		}
		if err := tb.of(refFig).Render(&refBuf); err != nil {
			t.Fatalf("render ref %s: %v", tb.name, err)
		}
		if !bytes.Equal(liveBuf.Bytes(), refBuf.Bytes()) {
			t.Errorf("%s table diverges:\n--- live core ---\n%s--- reference ---\n%s",
				tb.name, liveBuf.String(), refBuf.String())
		}
	}
}

// TestArenaCoreMatchesReferenceFig11 runs the six Fig 11 scheduler cells on
// both cores with independent Timeline observers and requires identical
// results and identical recorded slot-allocation timelines.
func TestArenaCoreMatchesReferenceFig11(t *testing.T) {
	cfg := DefaultFig11Config()
	cells, _ := Fig11Cells(cfg)
	for i := range cells {
		c := &cells[i]
		plans := cellPlans(t, c)
		liveTL := metrics.NewTimeline()
		live := runLive(t, c, plans, liveTL)
		refTL := metrics.NewTimeline()
		ref, err := refsim.Run(c.Config, c.Policy(), refTL, c.Flows, plans)
		if err != nil {
			t.Fatalf("cell %q: refsim: %v", c.Name, err)
		}
		if !reflect.DeepEqual(live, ref) {
			t.Errorf("cell %q: live core diverges from reference simulator:\nlive: %+v\nref:  %+v", c.Name, live, ref)
		}
		if !reflect.DeepEqual(liveTL, refTL) {
			t.Errorf("cell %q: slot-allocation timelines diverge between cores", c.Name)
		}
	}
}

// TestArenaCoreMatchesReferenceModes covers the simulator modes the figure
// corpus leaves dark: heartbeat-grid dispatch (the batched-drain fast path),
// scripted node failures with and without recovery, duration noise with
// stragglers and speculative execution, locality modeling with delay
// scheduling, and heartbeat + noise + stragglers + speculation + submitter
// overhead + seeded failures together — each crossed with all six schedulers
// on the Fig 11 workload.
func TestArenaCoreMatchesReferenceModes(t *testing.T) {
	f11 := DefaultFig11Config()
	flows := f11.Flows()
	base := f11.Cluster()
	modes := []struct {
		name string
		mut  func(*cluster.Config)
	}{
		{"heartbeat", func(cc *cluster.Config) {
			cc.HeartbeatInterval = 3 * time.Second
			cc.SubmitterOverhead = 2 * time.Second
		}},
		{"failures", func(cc *cluster.Config) {
			cc.HeartbeatInterval = 3 * time.Second
			cc.Failures = []cluster.Failure{
				{Node: 0, At: simtime.Epoch.Add(10 * time.Minute), Downtime: 20 * time.Minute},
				{Node: 3, At: simtime.Epoch.Add(25 * time.Minute)}, // never recovers
				{Node: 7, At: simtime.Epoch.Add(40 * time.Minute), Downtime: 5 * time.Minute},
			}
		}},
		{"noise-spec", func(cc *cluster.Config) {
			cc.Noise = 0.2
			cc.StragglerProb = 0.05
			cc.StragglerFactor = 3
			cc.SpeculativeSlowdown = 1.5
		}},
		{"locality", func(cc *cluster.Config) {
			cc.Replication = 3
			cc.RemotePenalty = 1.3
			cc.DelayScheduling = 9 * time.Second
			cc.Noise = 0.1
		}},
		// The benchmark's big_heartbeat configuration at this corpus's scale,
		// everything on at once: lane heartbeats interleave with activations,
		// completions, failures and recoveries in the heap, and the
		// speculation gate sees twins, requeues and wake-ups. The reference
		// has neither lane nor gate, so DeepEqual (SimulatedEvents included)
		// pins both as invisible.
		{"big-heartbeat", func(cc *cluster.Config) {
			cc.HeartbeatInterval = 3 * time.Second
			cc.SubmitterOverhead = 2 * time.Second
			cc.Noise = 0.2
			cc.StragglerProb = 0.05
			cc.StragglerFactor = 3
			cc.SpeculativeSlowdown = 1.5
			rng := rand.New(rand.NewSource(f11.Seed))
			for i := 0; i < 4; i++ {
				cc.Failures = append(cc.Failures, cluster.Failure{
					Node:     rng.Intn(cc.Nodes),
					At:       simtime.Epoch.Add(time.Duration(rng.Int63n(int64(time.Hour)))),
					Downtime: 10 * time.Minute,
				})
			}
		}},
	}
	for _, m := range modes {
		for _, spec := range AllSchedulers() {
			cc := base
			m.mut(&cc)
			name := fmt.Sprintf("%s/%s", m.name, spec.Name)
			cell := ScenarioCell(name, cc, flows, spec, f11.Seed, nil, f11.Margin, nil)
			t.Run(name, func(t *testing.T) {
				assertCellParity(t, &cell)
			})
		}
	}
}
