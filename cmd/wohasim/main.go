// Command wohasim runs one workload on the simulated Hadoop cluster under a
// chosen workflow scheduler and reports per-workflow outcomes.
//
// Workloads:
//
//	-workload fig7     the paper's 33-job demo topology x3 (the Fig 11 setup)
//	-workload yahoo    the 61-workflow Yahoo-derived population (Fig 8 setup)
//	-workload x.xml    one workflow from an XML configuration file
//
// Example:
//
//	wohasim -workload fig7 -scheduler WOHA-LPF -nodes 32
//	wohasim -workload my-pipeline.xml -scheduler EDF -timeline out.csv
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	woha "repro"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/workload"
)

func main() {
	var (
		workloadName = flag.String("workload", "fig7", "fig7, yahoo, or a workflow XML file")
		schedName    = flag.String("scheduler", "WOHA-LPF", "EDF, FIFO, Fair, WOHA-LPF, WOHA-HLF, or WOHA-MPF")
		nodes        = flag.Int("nodes", 32, "number of TaskTrackers")
		mapSlots     = flag.Int("map-slots", 2, "map slots per node")
		reduceSlots  = flag.Int("reduce-slots", 1, "reduce slots per node")
		heartbeat    = flag.Duration("heartbeat", 0, "heartbeat interval (0 = instant dispatch)")
		submitter    = flag.Duration("submitter", 0, "submitter-job overhead per wjob activation")
		noise        = flag.Float64("noise", 0, "task duration noise fraction in [0,1)")
		seed         = flag.Int64("seed", 1, "PRNG seed")
		timeline     = flag.String("timeline", "", "write map-slot allocation CSV to this file")
		liveMode     = flag.Bool("live", false, "run on the concurrent live mini-Hadoop instead of the discrete-event simulator")
		timeScale    = flag.Float64("time-scale", 0.001, "live mode: wall seconds per virtual second")
		metricsAddr  = flag.String("metrics-addr", "", "serve the introspection plane (/metrics, /statusz, /debug/pprof) on this address during the run (e.g. :8080; :0 picks a free port) and print a final scrape")
		postmortem   = flag.String("postmortem", "", "write a miss root-cause report (JSON) to this file after the run and print a text summary")
		healthInt    = flag.Duration("health-interval", 30*time.Second, "virtual-time interval between deadline-health snapshots when instrumentation is active (0 disables)")
		planWorkers  = flag.Int("plan-workers", 1, "plan up to N workflows at once (0 = one per core)")
		planCache    = flag.Int("plan-cache", 0, "structural plan cache capacity (0 = disabled)")
		replicas     = flag.Int("replicas", 1, "replay the run once per seed (seed, seed+1, ...) and report per-seed outcomes")
		replicaWork  = flag.Int("replica-workers", 0, "concurrent replicas (0 = one per core, 1 = serial; results identical either way)")
		admMode      = flag.String("admission", "", "front-door admission controller: always, feasible, or token-bucket (empty = no front door, the seed behaviour)")
		admTenants   = flag.String("tenants", "", "per-tenant admission policies, e.g. \"t1:rate=6,burst=2,quota=0.5,tier=0;t2:quota=0.25,tier=1\"; workflows are assigned tenants round-robin")
		clusters     = flag.Int("clusters", 1, "federate the run across this many member clusters, each with -nodes nodes (>1 selects the federation path)")
		routerName   = flag.String("router", "slack", "federation workflow router: round-robin, least-loaded, or slack")
		snapRefresh  = flag.Duration("snapshot-refresh", 0, "federation: oldest member load snapshot the router may decide on (0 = refreshed before every decision)")
	)
	flag.Parse()
	po := planOpts{workers: *planWorkers, cache: *planCache}
	ao := admissionOpts{mode: *admMode, tenants: *admTenants}

	if *postmortem != "" && *replicas > 1 {
		fmt.Fprintln(os.Stderr, "wohasim: -postmortem records a single run; drop it or -replicas")
		os.Exit(1)
	}
	if *timeline != "" && *replicas > 1 {
		fmt.Fprintln(os.Stderr, "wohasim: -timeline records a single run; drop it or -replicas")
		os.Exit(1)
	}
	if ao.mode != "" && *replicas > 1 {
		fmt.Fprintln(os.Stderr, "wohasim: -admission controllers are stateful per-run; drop it or -replicas")
		os.Exit(1)
	}
	if *clusters < 1 {
		fmt.Fprintln(os.Stderr, "wohasim: -clusters must be >= 1")
		os.Exit(1)
	}
	if *clusters > 1 && (*liveMode || *replicas > 1 || *timeline != "" || *postmortem != "" || ao.mode != "") {
		fmt.Fprintln(os.Stderr, "wohasim: -clusters federates the discrete-event simulator only; drop -live, -replicas, -timeline, -postmortem, and -admission")
		os.Exit(1)
	}

	var (
		ins  *woha.Instrumentation
		srv  *woha.IntrospectionServer
		pm   *postmortemCapture
		ring *woha.EventRing
	)
	if *metricsAddr != "" || *postmortem != "" {
		var reg *woha.Metrics
		if *metricsAddr != "" {
			reg = woha.NewMetrics()
		}
		// Box the ring into the sink interface only when it exists: a
		// typed-nil EventSink would defeat the emit path's nil check.
		var sink woha.EventSink
		if *postmortem != "" {
			ring = woha.NewEventRing(1 << 20)
			pm = &postmortemCapture{path: *postmortem, ring: ring}
			sink = ring
		}
		ins = woha.NewInstrumentation(reg, sink)
		if *healthInt > 0 {
			ins.EnableHealth(woha.HealthConfig{Interval: *healthInt})
		}
	}
	if *metricsAddr != "" {
		var err error
		srv, err = woha.ServeIntrospection(*metricsAddr, ins)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wohasim:", err)
			os.Exit(1)
		}
		fmt.Printf("introspection: serving http://%s/metrics, /statusz, /debug/pprof/\n", srv.Addr())
	}

	pl := po.shared(ins)
	cfg := woha.ClusterConfig{
		Nodes:              *nodes,
		MapSlotsPerNode:    *mapSlots,
		ReduceSlotsPerNode: *reduceSlots,
		HeartbeatInterval:  *heartbeat,
		SubmitterOverhead:  *submitter,
		Noise:              *noise,
		Seed:               *seed,
	}
	var err error
	switch {
	case *liveMode:
		err = runLive(*workloadName, *schedName, cfg, *timeScale, ins, pl, pm, ao)
	case *clusters > 1:
		err = runFederation(*workloadName, *schedName, cfg, *clusters, *routerName, *snapRefresh, ins, pl)
	case *replicas > 1:
		err = runReplicas(*workloadName, *schedName, cfg, *replicas, *replicaWork, ins, pl)
	default:
		err = run(*workloadName, *schedName, cfg, *timeline, ins, pl, pm, ao)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wohasim:", err)
		os.Exit(1)
	}
	if err := pm.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wohasim:", err)
		os.Exit(1)
	}
	if err := stopIntrospection(srv); err != nil {
		fmt.Fprintln(os.Stderr, "wohasim:", err)
		os.Exit(1)
	}
}

// stopIntrospection prints the final scrape — through the real listener,
// proving the exposition is served, not just renderable — and then drains the
// server gracefully so in-flight scrapes finish before the listener closes.
func stopIntrospection(s *woha.IntrospectionServer) error {
	if s == nil {
		return nil
	}
	if err := s.DumpMetrics(os.Stdout); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}

// postmortemCapture buffers the run's event stream plus per-workflow specs
// and plans so the miss root-cause report can be reconstructed after the run.
type postmortemCapture struct {
	path  string
	ring  *woha.EventRing
	specs []woha.PostmortemSpec
}

// write analyzes the captured stream, writes the JSON report, and prints the
// text summary.
func (pc *postmortemCapture) write(out io.Writer) error {
	if pc == nil {
		return nil
	}
	rep := woha.AnalyzePostmortem(pc.ring.Events(), pc.specs)
	f, err := os.Create(pc.path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "postmortem report written to %s\n", pc.path)
	return rep.WriteText(out)
}

// planOpts carries the planner tuning flags: workflows planned at once
// (0 = one per core) and structural cache capacity (0 = off).
type planOpts struct {
	workers, cache int
}

// shared builds the one coalescing plan service every wohasim path uses:
// sessions receive it via WithPlanner, replica sweeps share its cache across
// seeds, and live mode generates through it directly — so each distinct
// (shape, caps, policy) key costs one simulation process-wide.
func (po planOpts) shared(ins *woha.Instrumentation) *woha.Planner {
	workers := po.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return woha.NewPlanner(woha.PlannerConfig{
		Workers:   workers,
		CacheSize: po.cache,
		Margin:    experiments.PlanMargin,
		Obs:       ins,
	})
}

// batch is one run's input, shared by the single-cluster, live and federated
// paths: the workload, the scheduler's spec, the front door, and the
// workload's plans.
type batch struct {
	flows []*woha.Workflow
	spec  experiments.SchedulerSpec
	// plans is index-aligned with flows; its entries are nil under a
	// baseline scheduler, which receives no plans.
	plans []*woha.Plan
	adm   woha.AdmissionController
}

// load builds the named workload and prepares it (see prepare).
func load(workloadName, schedName string, cfg woha.ClusterConfig, ins *woha.Instrumentation, pl *woha.Planner, pm *postmortemCapture, ao admissionOpts) (*batch, error) {
	flows, err := buildWorkload(workloadName)
	if err != nil {
		return nil, err
	}
	return prepare(flows, schedName, cfg, ins, pl, pm, ao)
}

// prepare resolves the scheduler, builds the admission controller, assigns
// tenants to flows and plans every workflow once through the spec's plan
// step, against one cluster of cfg's slots: the cluster the workflow runs
// on, a federation member included. The postmortem capture, when there is
// one, records the same plans the run is submitted with.
func prepare(flows []*woha.Workflow, schedName string, cfg woha.ClusterConfig, ins *woha.Instrumentation, pl *woha.Planner, pm *postmortemCapture, ao admissionOpts) (*batch, error) {
	spec, err := experiments.SchedulerByName(schedName)
	if err != nil {
		return nil, err
	}
	adm, tenantNames, err := ao.controller(cfg.MapSlots(), cfg.ReduceSlots(), ins)
	if err != nil {
		return nil, err
	}
	assignTenants(flows, tenantNames)
	plans, err := spec.Plans(pl, flows, plan.Caps{Maps: cfg.MapSlots(), Reduces: cfg.ReduceSlots()}, ins)
	if err != nil {
		return nil, err
	}
	if plans == nil {
		plans = make([]*woha.Plan, len(flows))
	}
	if pm != nil {
		for i, w := range flows {
			pm.specs = append(pm.specs, woha.PostmortemSpec{Workflow: i, Spec: w, Plan: plans[i]})
		}
	}
	return &batch{flows: flows, spec: spec, plans: plans, adm: adm}, nil
}

func run(workloadName, schedName string, cfg woha.ClusterConfig, timelinePath string, ins *woha.Instrumentation, pl *woha.Planner, pm *postmortemCapture, ao admissionOpts) error {
	b, err := load(workloadName, schedName, cfg, ins, pl, pm, ao)
	if err != nil {
		return err
	}

	var tl *metrics.Timeline
	opts := []woha.SessionOption{woha.WithSeed(cfg.Seed), woha.WithInstrumentation(ins), woha.WithPlanner(pl), woha.WithAdmission(b.adm)}
	if timelinePath != "" {
		tl = woha.NewTimeline()
		opts = append(opts, woha.WithObserver(tl))
	}
	sess, err := woha.NewSession(cfg, woha.Scheduler(schedName), opts...)
	if err != nil {
		return err
	}
	for i, w := range b.flows {
		if err := sess.SubmitWithPlan(w, b.plans[i]); err != nil {
			return err
		}
	}
	res, err := sess.Run()
	if err != nil {
		return err
	}

	fmt.Printf("scheduler %s on %d nodes (%d map + %d reduce slots), %d workflows, %d tasks\n",
		res.Policy, cfg.Nodes, cfg.MapSlots(), cfg.ReduceSlots(), len(res.Workflows), res.TasksStarted)
	fmt.Printf("%-12s %10s %10s %10s %10s  %s\n", "workflow", "release", "deadline", "finish", "workspan", "met")
	for _, w := range res.Workflows {
		fmt.Printf("%-12s %10.0fs %10.0fs %10.0fs %10.0fs  %s\n",
			w.Name, w.Release.Seconds(), w.Deadline.Seconds(), w.Finish.Seconds(), w.Workspan.Seconds(),
			outcomeLabel(w, "yes"))
	}
	fmt.Printf("misses %d/%d (%.1f%%), max tardiness %v, total tardiness %v, utilization %.3f, makespan %v\n",
		res.DeadlineMisses(), len(res.Workflows), 100*res.MissRatio(),
		res.MaxTardiness().Round(time.Second), res.TotalTardiness().Round(time.Second),
		res.Utilization(), res.Makespan.Duration().Round(time.Second))
	printAdmissionSummary(b.adm, res.Workflows)

	if tl != nil {
		f, err := os.Create(timelinePath)
		if err != nil {
			return err
		}
		if err := tl.WriteCSV(f, woha.MapSlot); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("map-slot timeline written to %s\n", timelinePath)
	}
	return nil
}

// runReplicas replays the workload once per seed (cfg.Seed, cfg.Seed+1, ...)
// through the parallel runner and reports the per-seed outcome spread.
func runReplicas(workloadName, schedName string, cfg woha.ClusterConfig, replicas, workers int, ins *woha.Instrumentation, pl *woha.Planner) error {
	flows, err := buildWorkload(workloadName)
	if err != nil {
		return err
	}
	seeds := make([]int64, replicas)
	for i := range seeds {
		seeds[i] = cfg.Seed + int64(i)
	}
	opts := []woha.SessionOption{woha.WithInstrumentation(ins), woha.WithPlanner(pl)}
	results, err := woha.RunSeeds(cfg, woha.Scheduler(schedName), flows, seeds, workers, opts...)
	if err != nil {
		return err
	}

	fmt.Printf("scheduler %s on %d nodes (%d map + %d reduce slots), %d workflows, %d replicas\n",
		schedName, cfg.Nodes, cfg.MapSlots(), cfg.ReduceSlots(), len(flows), replicas)
	fmt.Printf("%-8s %8s %14s %14s %12s %10s\n", "seed", "misses", "max-tard", "total-tard", "makespan", "util")
	var missSum int
	var tardSum time.Duration
	for i, res := range results {
		missSum += res.DeadlineMisses()
		tardSum += res.TotalTardiness()
		fmt.Printf("%-8d %5d/%-2d %13.0fs %13.0fs %11.0fs %10.3f\n",
			seeds[i], res.DeadlineMisses(), len(res.Workflows),
			res.MaxTardiness().Seconds(), res.TotalTardiness().Seconds(),
			res.Makespan.Duration().Seconds(), res.Utilization())
	}
	fmt.Printf("mean: %.2f misses, %.0fs total tardiness over %d seeds\n",
		float64(missSum)/float64(replicas), tardSum.Seconds()/float64(replicas), replicas)
	return nil
}

// runLive executes the workload on the concurrent mini-Hadoop, with cfg's
// nodes, slots and seed.
func runLive(workloadName, schedName string, cfg woha.ClusterConfig, timeScale float64, ins *woha.Instrumentation, pl *woha.Planner, pm *postmortemCapture, ao admissionOpts) error {
	b, err := load(workloadName, schedName, cfg, ins, pl, pm, ao)
	if err != nil {
		return err
	}
	lc := woha.LiveConfig{
		Nodes:              cfg.Nodes,
		MapSlotsPerNode:    cfg.MapSlotsPerNode,
		ReduceSlotsPerNode: cfg.ReduceSlotsPerNode,
		HeartbeatInterval:  5 * time.Millisecond,
		TimeScale:          timeScale,
	}
	sess, err := woha.NewLiveSession(lc, woha.Scheduler(schedName), false,
		woha.WithSeed(cfg.Seed), woha.WithInstrumentation(ins), woha.WithPlanner(pl), woha.WithAdmission(b.adm))
	if err != nil {
		return err
	}
	for i, w := range b.flows {
		if err := sess.SubmitWithPlan(w, b.plans[i]); err != nil {
			return err
		}
	}
	start := time.Now()
	res, err := sess.Run(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("live run under %s: %d workflows, %d tasks, wall time %v\n",
		res.Policy, len(res.Workflows), res.TasksStarted, time.Since(start).Round(time.Millisecond))
	virtualHB := time.Duration(float64(lc.HeartbeatInterval) / timeScale)
	fmt.Printf("  (5ms wall heartbeats = %v of virtual dispatch latency at this time scale;\n"+
		"   pick -time-scale so that is ~3s to emulate Hadoop's heartbeat period)\n",
		virtualHB.Round(time.Second))
	for _, w := range res.Workflows {
		fmt.Printf("  %-12s workspan %10v (virtual)  %s\n", w.Name, w.Workspan.Round(time.Second), outcomeLabel(w, "met"))
	}
	printAdmissionSummary(b.adm, res.Workflows)
	return nil
}

func buildWorkload(name string) ([]*woha.Workflow, error) {
	switch name {
	case "fig7":
		return experiments.DefaultFig11Config().Flows(), nil
	case "yahoo":
		flows, err := workload.Yahoo(workload.DefaultYahooConfig())
		if err != nil {
			return nil, err
		}
		return workload.MultiJob(flows), nil
	default:
		f, err := os.Open(name)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		w, err := woha.ParseWorkflowXML(f)
		if err != nil {
			return nil, err
		}
		return []*woha.Workflow{w}, nil
	}
}
