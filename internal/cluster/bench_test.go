package cluster_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/planner"
	"repro/internal/priority"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/workflow"
	"repro/internal/workload"
)

// BenchmarkHeartbeatCluster is the benchmark's big_heartbeat workload at
// scale 2, so that `go test -bench HeartbeatCluster -cpuprofile` profiles the
// heartbeat-mode event loop from inside the package: the Yahoo composition ×
// scale with single-job workflows removed, released over the window that
// offers 70 % utilisation, on one cluster of 10 × scale nodes with 2 + 2
// slots under WOHA-LPF — 3 s heartbeats, ±20 % noise, 5 % stragglers at 3×,
// speculation past 1.5×, a 2 s submitter task per job and seeded ten-minute
// node failures. One iteration is New + Submit×N + Run + Release on the
// pooled simulator; the corpus and its plans are built once, outside the
// timer. Throughput is reported the way the benchmark does, as corpus tasks
// per second, with events per task beside it: the events the run counts
// (Result.SimulatedEvents, what a simulator executing every tick processes)
// and the events it executed (StepTo's return), which differ by the ticks of
// sleeping nodes.
func BenchmarkHeartbeatCluster(b *testing.B) {
	const scale, seed = 2, 1
	nodes := 10 * scale
	slots := nodes * 4
	build := func(window time.Duration) []*workflow.Workflow {
		cfg := workload.DefaultYahooConfig()
		cfg.Seed = seed
		cfg.Workflows *= scale
		cfg.Jobs *= scale
		cfg.SingleJob *= scale
		cfg.Trace = trace.DefaultParams().Scale(1.0, 0.5)
		cfg.ReleaseWindow = window
		cfg.Scheme = workload.DeadlineStretch
		cfg.ReferenceSlots = slots
		all, err := workload.Yahoo(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return workload.MultiJob(all)
	}
	// The draws inside workload.Yahoo do not depend on the window, so the
	// first generation measures the work and the second spreads the same
	// workflows over the window that work implies.
	var work time.Duration
	for _, w := range build(0) {
		work += w.SerialWork()
	}
	window := time.Duration(float64(work) / (0.70 * float64(slots)))
	flows := build(window)
	tasks := 0
	for _, w := range flows {
		tasks += w.TotalTasks()
	}
	plans, err := planner.New(planner.Config{Margin: 0.85}).
		PlanAll(flows, plan.Caps{Maps: nodes * 2, Reduces: nodes * 2}, priority.LPF{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := cluster.Config{
		Nodes: nodes, MapSlotsPerNode: 2, ReduceSlotsPerNode: 2,
		HeartbeatInterval:   3 * time.Second,
		SubmitterOverhead:   2 * time.Second,
		Noise:               0.2,
		StragglerProb:       0.05,
		StragglerFactor:     3,
		SpeculativeSlowdown: 1.5,
		Seed:                seed,
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 16; i++ {
		cfg.Failures = append(cfg.Failures, cluster.Failure{
			Node:     rng.Intn(nodes),
			At:       simtime.Epoch.Add(time.Duration(rng.Float64() * float64(window))),
			Downtime: 10 * time.Minute,
		})
	}
	executed := 0
	run := func() *cluster.Result {
		sim, err := cluster.New(cfg, core.NewScheduler(core.Options{Seed: seed, PolicyName: priority.LPF{}.Name()}), nil)
		if err != nil {
			b.Fatal(err)
		}
		for i, w := range flows {
			if err := sim.Submit(w, plans[i]); err != nil {
				b.Fatal(err)
			}
		}
		if err := sim.Start(); err != nil {
			b.Fatal(err)
		}
		executed = sim.StepTo(simtime.MaxTime)
		res, err := sim.Finish()
		if err != nil {
			b.Fatal(err)
		}
		sim.Release()
		return res
	}
	res := run() // fill the pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = run()
	}
	b.ReportMetric(float64(tasks)*float64(b.N)/b.Elapsed().Seconds(), "tasks/s")
	b.ReportMetric(float64(res.SimulatedEvents)/float64(tasks), "events/task")
	b.ReportMetric(float64(executed)/float64(tasks), "executed-events/task")
}
