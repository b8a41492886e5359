package main

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/planner"
	"repro/internal/priority"
	"repro/internal/runner"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/workflow"
)

// checkOutcomes applies the per-workflow output checks every simulated
// workload shares — each submitted workflow appears exactly once, completed
// xor rejected, never finished before its release, met exactly when on time,
// a counter-offer always later than the deadline it replaces — and feeds the
// digest and the outcome facts. route(i) is the member outcome i ran on.
func checkOutcomes(flows []*workflow.Workflow, results []cluster.WorkflowResult, route func(i int) int, out *passOut, dg *digester) {
	if len(results) != len(flows) {
		out.fail("%d outcomes for %d workflows", len(results), len(flows))
		return
	}
	byName := make(map[string]*workflow.Workflow, len(flows))
	for _, w := range flows {
		byName[w.Name] = w
	}
	seen := make(map[string]bool, len(flows))
	for i := range results {
		wr := &results[i]
		w := byName[wr.Name]
		switch {
		case w == nil:
			out.fail("outcome for %q, which was never submitted", wr.Name)
			continue
		case seen[wr.Name]:
			out.fail("%s appears twice", wr.Name)
		case wr.Rejected && (wr.Finish != 0 || wr.Met):
			out.fail("%s rejected yet finished at %v (met=%v)", wr.Name, wr.Finish, wr.Met)
		case wr.Rejected && wr.CounterOffer != 0 && wr.CounterOffer <= w.Deadline:
			out.fail("%s rejected with counter-offer %v not later than its deadline %v", wr.Name, wr.CounterOffer, w.Deadline)
		case !wr.Rejected && wr.Finish < w.Release:
			out.fail("%s finished at %v before its release %v", wr.Name, wr.Finish, w.Release)
		case !wr.Rejected && wr.Met != (wr.Finish <= w.Deadline):
			out.fail("%s met=%v with finish %v and deadline %v", wr.Name, wr.Met, wr.Finish, w.Deadline)
		}
		seen[wr.Name] = true
		out.facts[fResolved]++
		if !wr.Met {
			out.facts[fMisses]++
		}
		if wr.Rejected {
			out.facts[fRejects]++
		} else {
			out.facts[fAdmitted]++
			out.facts[fRanTasks] += float64(w.TotalTasks())
			if !wr.Met {
				out.facts[fAdmittedMiss]++
			}
		}
		dg.str(wr.Name)
		dg.int(int64(wr.Finish))
		dg.bool(wr.Met)
		dg.bool(wr.Rejected)
		dg.int(int64(route(i)))
	}
}

// simFacts adds what one simulator result says about the cluster layer.
func simFacts(out *passOut, r *cluster.Result) {
	out.facts[fEvents] += float64(r.SimulatedEvents)
	out.facts[fStarted] += float64(r.TasksStarted)
	out.facts[fBusySlotNs] += float64(r.MapBusy + r.ReduceBusy)
}

// ---------------------------------------------------------------------------
// fig8_sweep: the simulator core on many small instant-dispatch scenarios.

// fig8Seeds is how many seeds of the paper's Fig 8 corpus (6 schedulers ×
// 200/240/280 slots × 46 workflows = 18 cells each) one pass runs.
const fig8Seeds = 32

type fig8Sweep struct {
	seed  int64
	cells []runner.Cell
	// perSeed is the number of cells each seed contributes and specs the
	// scheduler of each row of them, in Fig8Cells order.
	perSeed   int
	sizes     int
	specs     []experiments.SchedulerSpec
	workflows int
	jobs      int
	tasks     int
}

func setupFig8Sweep(seed int64, smoke bool) (instance, error) {
	seeds := fig8Seeds
	if smoke {
		seeds = 1
	}
	// Instance seeds one apart must not share populations: seed s covers
	// the Fig 8 seeds s·fig8Seeds … s·fig8Seeds + fig8Seeds − 1.
	f := &fig8Sweep{seed: seed * fig8Seeds, specs: experiments.AllSchedulers()}
	// One planner serves every cell's plans; its margin must match the
	// figure's. The plans are set-up, not measured: this workload is about
	// the simulator.
	pl := planner.New(planner.Config{Workers: 1, CacheSize: planCacheSize, Margin: experiments.PlanMargin})
	for k := 0; k < seeds; k++ {
		cfg := experiments.DefaultFig8Config()
		cfg.Yahoo.Seed = f.seed + int64(k)
		cfg.Seed = f.seed + int64(k)
		cfg.Planner = pl
		cells, err := experiments.Fig8Cells(cfg)
		if err != nil {
			return nil, err
		}
		f.perSeed, f.sizes = len(cells), len(cfg.Sizes)
		f.cells = append(f.cells, cells...)
	}
	// Generate every cell's plans now, across the cores, and pin them.
	errs := make([]error, len(f.cells))
	var wg sync.WaitGroup
	for g := 0; g < procs(); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(f.cells); i += procs() {
				if f.cells[i].Plans == nil {
					continue
				}
				plans, err := f.cells[i].Plans()
				if err != nil {
					errs[i] = fmt.Errorf("pre-generating plans for %s: %w", f.cells[i].Name, err)
					continue
				}
				f.cells[i].Plans = func() ([]*plan.Plan, error) { return plans, nil }
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for i := range f.cells {
		f.workflows += len(f.cells[i].Flows)
		for _, w := range f.cells[i].Flows {
			f.jobs += len(w.Jobs)
			f.tasks += w.TotalTasks()
		}
	}
	return f, nil
}

func (f *fig8Sweep) describe(w io.Writer) {
	fmt.Fprintf(w, "corpus: the paper's Fig 8 cells for %d seeds (%d..%d): %d cells, %d workflows, %d jobs, %d tasks per pass\n",
		len(f.cells)/f.perSeed, f.seed, f.seed+int64(len(f.cells)/f.perSeed)-1, len(f.cells), f.workflows, f.jobs, f.tasks)
	fmt.Fprintf(w, "corpus: batch release inside a 3-minute window as in the paper, so offered utilisation is not pinned; achieved is reported\n")
}

func (f *fig8Sweep) run(o passOpts) (*passOut, error) {
	out := &passOut{ops: len(f.cells), facts: facts{}}
	cells := f.cells
	if o.pt != nil {
		cells = append([]runner.Cell(nil), f.cells...)
		for i := range cells {
			build := cells[i].Policy
			cells[i].Policy = func() cluster.Policy { return o.pt.policy(build()) }
		}
	}
	var m0 float64
	if o.ledger {
		m0 = mallocs()
	}
	var results []*cluster.Result
	start := time.Now()
	runNs, err := o.pt.call("runner.RunAll", func() (err error) {
		results, err = runner.New(runner.Config{Workers: procs()}).RunAll(cells)
		return err
	})
	out.wall = time.Since(start)
	if err != nil {
		return nil, err
	}
	if o.ledger {
		out.facts[fScenMallocs], out.facts[fScenMallocN] = mallocs()-m0, float64(len(cells))
	}
	workers := min(procs(), len(cells))
	out.facts.add(facts{
		fWorkflows: float64(f.workflows), fTasks: float64(f.tasks), fWallNs: float64(out.wall),
		fSimNs: float64(runNs), fSimWorkerNs: float64(runNs) * float64(workers),
	})
	dg := newDigester()
	for i, r := range results {
		before := out.failed
		if r == nil {
			out.fail("cell %s returned no result", cells[i].Name)
			continue
		}
		simFacts(out, r)
		out.facts[fCapSlotNs] += float64(r.Makespan) * float64(r.Config.TotalSlots())
		missBefore := out.facts[fMisses]
		checkOutcomes(cells[i].Flows, r.Workflows, func(int) int { return 0 }, out, dg)
		sched := f.specs[(i%f.perSeed)/f.sizes].Name
		out.facts[fMissPrefix+sched] += out.facts[fMisses] - missBefore
		out.facts[fCellWfPrefix+sched] += float64(len(r.Workflows))
		// The operation here is the cell: however many of its workflows
		// fail a check, it counts once.
		if out.failed > before {
			out.failed = before + 1
		}
	}
	out.digest = dg.sum()
	o.pt.collectInto(out)
	return out, nil
}

// extras measures what the runner's second core buys on this corpus and
// what attaching the observability bundle costs the simulator.
func (f *fig8Sweep) extras() (map[string]float64, error) {
	t0 := time.Now()
	results, err := runner.New(runner.Config{Workers: 1}).RunAll(f.cells)
	serial := time.Since(t0)
	if err != nil {
		return nil, err
	}
	var events float64
	for _, r := range results {
		events += float64(r.SimulatedEvents)
	}
	t0 = time.Now()
	_, err = runner.New(runner.Config{Workers: procs()}).RunAll(f.cells)
	parallel := time.Since(t0)
	if err != nil {
		return nil, err
	}

	// Instrumented versus nil on the first seed's cells, run by hand because
	// only the simulator itself accepts the bundle. Alternating repeats and
	// medians keep a stray pause out of the ratio.
	first := f.cells[:f.perSeed]
	runCells := func(o *obs.Obs) (time.Duration, error) {
		t0 := time.Now()
		for i := range first {
			c := &first[i]
			sim, err := cluster.New(c.Config, c.Policy(), nil)
			if err != nil {
				return 0, err
			}
			sim.SetInstrumentation(o)
			var plans []*plan.Plan
			if c.Plans != nil {
				if plans, err = c.Plans(); err != nil {
					return 0, err
				}
			}
			for j, w := range c.Flows {
				var p *plan.Plan
				if plans != nil {
					p = plans[j]
				}
				if err := sim.Submit(w, p); err != nil {
					return 0, err
				}
			}
			if _, err := sim.Run(); err != nil {
				return 0, err
			}
			sim.Release()
		}
		return time.Since(t0), nil
	}
	var with, without []float64
	for rep := 0; rep < 7; rep++ {
		d, err := runCells(nil)
		if err != nil {
			return nil, err
		}
		without = append(without, float64(d))
		d, err = runCells(obs.New(obs.NewRegistry(), obs.NewRing(1<<16)))
		if err != nil {
			return nil, err
		}
		with = append(with, float64(d))
	}
	return map[string]float64{
		"runner.parallel_speedup": float64(serial) / float64(parallel),
		"obs.overhead_ratio":      median(with) / median(without),
		// Not a declared metric: printed for the README's reconciliation of
		// the historic serial ns/event figures.
		"fig8.serial_ns_per_event": float64(serial) / events,
	}, nil
}

// ---------------------------------------------------------------------------
// big_heartbeat: one large heartbeat-driven cluster, strictly serial.

const (
	bigScale        = 16
	bigNodesPerUnit = 10 // nodes = 10 × scale, each 2 map + 2 reduce slots
	bigFailures     = 16
)

type bigHeartbeat struct {
	spec  corpusSpec
	nodes int
	c     *corpus
	plans []*plan.Plan
	cfg   cluster.Config
}

func setupBigHeartbeat(seed int64, smoke bool) (instance, error) {
	scale := bigScale
	if smoke {
		scale = 1
	}
	b := &bigHeartbeat{nodes: bigNodesPerUnit * scale}
	b.spec = corpusSpec{
		scale:    scale,
		trace:    trace.DefaultParams().Scale(1.0, 0.5),
		slots:    b.nodes * 4,
		windowed: true,
		refSlots: b.nodes * 4,
	}
	var err error
	if b.c, err = b.spec.generate(seed); err != nil {
		return nil, err
	}
	pl := planner.New(planner.Config{Workers: procs(), Margin: experiments.PlanMargin})
	b.plans, err = pl.PlanAll(b.c.flows, plan.Caps{Maps: b.nodes * 2, Reduces: b.nodes * 2}, priority.LPF{})
	b.cfg = b.config(b.c)
	return b, err
}

// config is the Hadoop-1-like cluster: 3 s heartbeats, ±20 % duration noise,
// 5 % of attempts straggling at 3×, speculation past 1.5×, a 2 s submitter
// task per job, and sixteen scripted ten-minute node outages spread over the
// release window. Locality and delay scheduling stay off: at this node count
// delay scheduling collapses utilisation, a model artefact rather than load.
func (b *bigHeartbeat) config(c *corpus) cluster.Config {
	cc := cluster.Config{
		Nodes: b.nodes, MapSlotsPerNode: 2, ReduceSlotsPerNode: 2,
		HeartbeatInterval:   3 * time.Second,
		SubmitterOverhead:   2 * time.Second,
		Noise:               0.2,
		StragglerProb:       0.05,
		StragglerFactor:     3,
		SpeculativeSlowdown: 1.5,
		Seed:                c.seed,
	}
	rng := rand.New(rand.NewSource(c.seed))
	for i := 0; i < bigFailures; i++ {
		cc.Failures = append(cc.Failures, cluster.Failure{
			Node:     rng.Intn(b.nodes),
			At:       simtime.Epoch.Add(time.Duration(rng.Float64() * float64(c.window))),
			Downtime: 10 * time.Minute,
		})
	}
	return cc
}

func (b *bigHeartbeat) describe(w io.Writer) {
	describeCorpus(w, b.c, fmt.Sprintf("one cluster of %d nodes × (2 map + 2 reduce), scale %d", b.nodes, b.spec.scale))
}

func (b *bigHeartbeat) run(o passOpts) (*passOut, error) {
	c, plans, cc := b.c, b.plans, b.cfg
	out := &passOut{ops: len(c.flows), facts: facts{}}
	var m0 float64
	if o.ledger {
		m0 = mallocs()
	}
	var res *cluster.Result
	var runNs time.Duration
	start := time.Now()
	sim, err := cluster.New(cc, o.pt.policy(newWOHA(c.seed, priority.LPF{})), nil)
	if err != nil {
		return nil, err
	}
	for i, w := range c.flows {
		if err := sim.Submit(w, plans[i]); err != nil {
			return nil, err
		}
	}
	runNs, err = o.pt.call("cluster.Run", func() (err error) {
		res, err = sim.Run()
		return err
	})
	if err != nil {
		return nil, err
	}
	sim.Release()
	out.wall = time.Since(start)
	if o.ledger {
		out.facts[fScenMallocs], out.facts[fScenMallocN] = mallocs()-m0, 1
	}
	out.facts.add(facts{
		fWorkflows: float64(len(c.flows)), fTasks: float64(c.tasks), fWallNs: float64(out.wall),
		fSimNs: float64(runNs), fSimWorkerNs: float64(runNs),
		fCapSlotNs: float64(res.Makespan) * float64(cc.TotalSlots()),
	})
	simFacts(out, res)
	dg := newDigester()
	checkOutcomes(c.flows, res.Workflows, func(int) int { return 0 }, out, dg)
	if res.TasksStarted < c.tasks {
		out.fail("%d task attempts for %d corpus tasks", res.TasksStarted, c.tasks)
	}
	out.digest = dg.sum()
	o.pt.collectInto(out)
	return out, nil
}

func (b *bigHeartbeat) extras() (map[string]float64, error) { return nil, nil }

// describeCorpus prints the facts of one generated corpus.
func describeCorpus(w io.Writer, c *corpus, shape string) {
	fmt.Fprintf(w, "corpus: %s\n", shape)
	release := "all released at Epoch (no offered rate to pin)"
	if c.window > 0 {
		release = fmt.Sprintf("release window %s, offered utilisation %.3f", c.window.Round(time.Second), c.offered)
	}
	fmt.Fprintf(w, "corpus: seed %d: %d workflows, %d jobs, %d tasks, serial work %.0f slot-h, %s\n",
		c.seed, len(c.flows), c.jobs, c.tasks, c.serialWork.Hours(), release)
}
