package scheduler_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/refsim"
	"repro/internal/experiments"
	"repro/internal/oracle"
	"repro/internal/scheduler"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// baseline pairs a baseline with its referee in scan_test.go.
type baseline struct {
	name     string
	pol, ref func() cluster.Policy
}

var baselines = []baseline{
	{"EDF", func() cluster.Policy { return scheduler.NewEDF() }, func() cluster.Policy { return newScanEDF() }},
	{"FIFO", func() cluster.Policy { return scheduler.NewFIFO() }, func() cluster.Policy { return newScanFIFO() }},
	{"Fair", func() cluster.Policy { return scheduler.NewFair() }, func() cluster.Policy { return newScanFair() }},
}

// matchPair drives a baseline and its referee through one run: every
// callback reaches both, and NextTask records the first call on which their
// answers differ before answering with the baseline's.
type matchPair struct {
	pol, ref cluster.Policy
	// calls counts NextTask calls; reduces and requeues the ReducesReady
	// and TaskRequeued callbacks, so a run can show it took those paths.
	calls, reduces, requeues int
	diff                     string
}

var (
	_ cluster.ReducePhasePolicy = (*matchPair)(nil)
	_ cluster.RequeuePolicy     = (*matchPair)(nil)
)

func (p *matchPair) Name() string { return p.pol.Name() }

func (p *matchPair) WorkflowAdded(ws *cluster.WorkflowState, now simtime.Time) {
	p.pol.WorkflowAdded(ws, now)
	p.ref.WorkflowAdded(ws, now)
}

func (p *matchPair) JobActivated(ws *cluster.WorkflowState, job workflow.JobID, now simtime.Time) {
	p.pol.JobActivated(ws, job, now)
	p.ref.JobActivated(ws, job, now)
}

func (p *matchPair) ReducesReady(ws *cluster.WorkflowState, job workflow.JobID, now simtime.Time) {
	p.reduces++
	for _, q := range []cluster.Policy{p.pol, p.ref} {
		if rp, ok := q.(cluster.ReducePhasePolicy); ok {
			rp.ReducesReady(ws, job, now)
		}
	}
}

func (p *matchPair) TaskRequeued(ws *cluster.WorkflowState, job workflow.JobID, st cluster.SlotType, now simtime.Time) {
	p.requeues++
	for _, q := range []cluster.Policy{p.pol, p.ref} {
		if rq, ok := q.(cluster.RequeuePolicy); ok {
			rq.TaskRequeued(ws, job, st, now)
		}
	}
}

func (p *matchPair) NextTask(now simtime.Time, st cluster.SlotType) (*cluster.WorkflowState, workflow.JobID, bool) {
	p.calls++
	ws, job, ok := p.pol.NextTask(now, st)
	rws, rjob, rok := p.ref.NextTask(now, st)
	if p.diff == "" && (ws != rws || job != rjob || ok != rok) {
		p.diff = fmt.Sprintf("NextTask call %d at %v for a %v slot: got %s, the scan picks %s",
			p.calls, now, st, pick(ws, job, ok), pick(rws, rjob, rok))
	}
	return ws, job, ok
}

func pick(ws *cluster.WorkflowState, job workflow.JobID, ok bool) string {
	if !ok {
		return "nothing"
	}
	return fmt.Sprintf("%s (index %d) job %d", ws.Spec.Name, ws.Index, job)
}

func (p *matchPair) TaskStarted(ws *cluster.WorkflowState, job workflow.JobID, st cluster.SlotType, now simtime.Time) {
	p.pol.TaskStarted(ws, job, st, now)
	p.ref.TaskStarted(ws, job, st, now)
}

func (p *matchPair) WorkflowCompleted(ws *cluster.WorkflowState, now simtime.Time) {
	p.pol.WorkflowCompleted(ws, now)
	p.ref.WorkflowCompleted(ws, now)
}

// matchRun runs flows under cfg with b and its referee paired, on the
// simulator or, with ref set, on the frozen refsim, and fails on the first
// NextTask the two answer differently.
func matchRun(t testing.TB, name string, cfg cluster.Config, flows []*workflow.Workflow, b baseline, ref bool) *matchPair {
	t.Helper()
	p := &matchPair{pol: b.pol(), ref: b.ref()}
	var err error
	if ref {
		_, err = refsim.Run(cfg, p, nil, flows, nil)
	} else {
		var sim *cluster.Simulator
		if sim, err = cluster.New(cfg, p, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, w := range flows {
			if err = sim.Submit(w, nil); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		_, err = sim.Run()
		sim.Release()
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if p.diff != "" {
		t.Fatalf("%s: %s", name, p.diff)
	}
	return p
}

type baselineCell struct {
	name  string
	cfg   cluster.Config
	flows []*workflow.Workflow
	b     baseline
}

// fig8Baselines returns the baseline cells of the Fig 8 sweep for seed.
func fig8Baselines(t testing.TB, seed int64) []baselineCell {
	t.Helper()
	cfg := experiments.DefaultFig8Config()
	cfg.Yahoo.Seed, cfg.Seed = seed, seed
	cells, err := experiments.Fig8Cells(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []baselineCell
	for _, c := range cells {
		spec, _, _ := strings.Cut(c.Name, "/")
		for _, b := range baselines {
			if b.name == spec {
				out = append(out, baselineCell{name: c.Name, cfg: c.Config, flows: c.Flows, b: b})
			}
		}
	}
	return out
}

// heartbeatMode turns a Fig 8 cell into the heartbeat-driven cluster with
// noisy durations, stragglers, speculation and two node failures, one
// recovering, placed a third and two thirds into the release window.
func heartbeatMode(cfg cluster.Config, flows []*workflow.Workflow) cluster.Config {
	first, last := flows[0].Release, flows[0].Release
	for _, w := range flows {
		first, last = min(first, w.Release), max(last, w.Release)
	}
	span := last.Sub(first)
	cfg.HeartbeatInterval = 3 * time.Second
	cfg.Noise = 0.3
	cfg.SpeculativeSlowdown, cfg.StragglerProb, cfg.StragglerFactor = 1.3, 0.15, 4
	cfg.Failures = []cluster.Failure{
		{Node: 0, At: first.Add(span / 3), Downtime: 10 * time.Minute},
		{Node: 1, At: first.Add(2 * span / 3)},
	}
	return cfg
}

// TestBaselinesMatchScan holds each baseline's candidate sets to the scans
// they replaced: the Fig 8 cells for seeds 1–8, in instant dispatch and in
// heartbeat mode with noise, speculation and node failures (the requeue
// path), and one run of each on the frozen refsim.
func TestBaselinesMatchScan(t *testing.T) {
	seeds := int64(8)
	if testing.Short() || raceEnabled {
		seeds = 2 // the referee's scans make the full sweep ≈10× slower under -race
	}
	var hb matchPair
	for seed := int64(1); seed <= seeds; seed++ {
		for _, c := range fig8Baselines(t, seed) {
			p := matchRun(t, fmt.Sprintf("seed %d %s", seed, c.name), c.cfg, c.flows, c.b, false)
			if p.calls == 0 || p.reduces == 0 {
				t.Fatalf("seed %d %s: %d NextTask calls, %d ReducesReady: the run took neither path", seed, c.name, p.calls, p.reduces)
			}
			p = matchRun(t, fmt.Sprintf("seed %d %s heartbeat", seed, c.name), heartbeatMode(c.cfg, c.flows), c.flows, c.b, false)
			hb.calls += p.calls
			hb.requeues += p.requeues
		}
	}
	if hb.calls == 0 || hb.requeues == 0 {
		t.Fatalf("heartbeat cells: %d NextTask calls, %d requeues: the failure path went unchecked", hb.calls, hb.requeues)
	}
	for _, c := range fig8Baselines(t, 1) {
		if c.cfg.Nodes == 100 {
			matchRun(t, c.name+" refsim", heartbeatMode(c.cfg, c.flows), c.flows, c.b, true)
		}
	}
}

// FuzzBaselinesMatchScan is TestBaselinesMatchScan on small random
// clusters: the bytes choose the baseline, a 1–8 node shape, up to four
// random DAGs with their releases and deadlines, noise, heartbeat dispatch,
// speculation and up to two recovering node failures.
func FuzzBaselinesMatchScan(f *testing.F) {
	f.Add([]byte{0, 2, 3, 0, 3, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{1, 4, 1, 15, 4, 9, 0, 40, 2, 3, 17, 60, 1, 1, 1, 2, 2, 30, 9})
	f.Add([]byte{2, 1, 0, 7, 2, 0, 0, 3, 0, 0, 3, 0, 5, 0, 20, 40})
	f.Add([]byte{2, 7, 2, 12, 4, 3, 250, 3, 90, 4, 12, 8, 2, 33, 5, 6, 6, 6, 1, 2, 200})
	f.Fuzz(func(t *testing.T, in []byte) {
		b := fuzzBytes(in)
		bl := baselines[int(b.next())%len(baselines)]
		cfg := cluster.Config{Nodes: 1 + int(b.next())%8}
		shape := b.next()
		cfg.MapSlotsPerNode, cfg.ReduceSlotsPerNode = 1+int(shape)%3, 1+int(shape/3)%2
		ctl := b.next()
		n := int(b.next()) % 5
		rng := rand.New(rand.NewSource(int64(b.next())))
		var flows []*workflow.Workflow
		for i := 0; i < n; i++ {
			w := oracle.RandomWorkflow(rng, 1+int(b.next())%6)
			w.Name = fmt.Sprintf("w%d", i)
			w.Release = simtime.Epoch.Add(time.Duration(b.next()) * time.Second)
			w.Deadline = w.Release.Add(time.Duration(1+int(b.next())%8) * time.Minute)
			flows = append(flows, w)
		}
		if ctl&1 != 0 {
			cfg.Noise, cfg.Seed = 0.3, int64(b.next())
		}
		if ctl&2 != 0 {
			cfg.HeartbeatInterval = time.Duration(1+b.next()%5) * time.Second
		}
		if ctl&4 != 0 {
			cfg.SpeculativeSlowdown, cfg.StragglerProb, cfg.StragglerFactor = 1.3, 0.2, 4
		}
		for k := 0; k < int(ctl>>3)%3; k++ {
			cfg.Failures = append(cfg.Failures, cluster.Failure{
				Node:     int(b.next()) % cfg.Nodes,
				At:       simtime.Epoch.Add(time.Duration(b.next()) * time.Second),
				Downtime: time.Duration(1+int(b.next())) * time.Second,
			})
		}
		matchRun(t, bl.name, cfg, flows, bl, false)
	})
}

// fuzzBytes decodes fuzz input; reading past the end yields zeros.
type fuzzBytes []byte

func (r *fuzzBytes) next() byte {
	if len(*r) == 0 {
		return 0
	}
	c := (*r)[0]
	*r = (*r)[1:]
	return c
}
