// Benchmarks regenerating every figure of the WOHA paper's evaluation.
// Each BenchmarkFigN measures the wall cost of reproducing that figure and
// reports the figure's headline numbers as custom benchmark metrics, so
// `go test -bench=. -benchmem` prints the same series the paper plots.
// EXPERIMENTS.md records the paper-vs-measured comparison.
package woha_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dsl"
	"repro/internal/experiments"
	"repro/internal/plan"
	"repro/internal/planner"
	"repro/internal/priority"
	"repro/internal/runner"
	"repro/internal/simtime"
	"repro/internal/workflow"
	"repro/internal/workload"
)

// BenchmarkFig2 regenerates the resource-cap motivating example.
func BenchmarkFig2(b *testing.B) {
	var last *experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2()
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.UncappedMisses), "uncapped-misses")
	b.ReportMetric(float64(last.CappedMisses), "capped-misses")
}

// BenchmarkFig3 regenerates the progress-requirement change-interval
// histogram.
func BenchmarkFig3(b *testing.B) {
	var last *experiments.Fig3Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(experiments.DefaultFig3Config())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Histogram.FractionAbove(4), "frac>10s")
	b.ReportMetric(last.Histogram.FractionAbove(2), "frac>100ms")
	b.ReportMetric(float64(last.Histogram.Total()), "intervals")
}

// BenchmarkFig5Fig6 regenerates the trace-statistics CDFs.
func BenchmarkFig5Fig6(b *testing.B) {
	var last *experiments.Fig56Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig56(experiments.DefaultFig56Config())
	}
	b.ReportMetric(last.MapTime.P(100)-last.MapTime.P(10), "maps-in-10s-100s")
	b.ReportMetric(1-last.ReduceTime.P(100), "reduces>100s")
	b.ReportMetric(1-last.ReduceTime.P(1000), "reduces>1000s")
	b.ReportMetric(1-last.MapCount.P(100), "jobs>100maps")
	b.ReportMetric(last.ReduceCount.P(9.5), "jobs<10reduces")
}

// benchmarkFig8At regenerates one cluster-size column of Fig 8/9/10 for one
// scheduler and reports its miss ratio and tardiness.
func benchmarkFig8At(b *testing.B, schedName string, size int) {
	cfg := experiments.DefaultFig8Config()
	cfg.Sizes = []int{size}
	var last *experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.MissRatio[schedName][0], "miss-ratio")
	b.ReportMetric(last.MaxTard[schedName][0].Seconds(), "max-tard-s")
	b.ReportMetric(last.TotalTard[schedName][0].Seconds(), "total-tard-s")
}

// BenchmarkFig8 regenerates the Fig 8/9/10 grid: deadline violation ratio,
// max tardiness, and total tardiness per scheduler and cluster size.
func BenchmarkFig8(b *testing.B) {
	for _, spec := range experiments.AllSchedulers() {
		for _, size := range experiments.DefaultFig8Config().Sizes {
			b.Run(fmt.Sprintf("%s/%dm-%dr", spec.Name, size, size), func(b *testing.B) {
				benchmarkFig8At(b, spec.Name, size)
			})
		}
	}
}

// BenchmarkFig11 regenerates the synthetic-workflow workspan experiment and
// reports each workflow's workspan plus the scheduler's miss count.
func BenchmarkFig11(b *testing.B) {
	for _, spec := range experiments.AllSchedulers() {
		b.Run(spec.Name, func(b *testing.B) {
			cfg := experiments.DefaultFig11Config()
			var last *cluster.Result
			for i := 0; i < b.N; i++ {
				last = runScenario(b, cfg.Cluster(), cfg.Flows(), mustSpec(b, spec.Name), cfg.Seed, experiments.PlanMargin)
			}
			for i, w := range last.Workflows {
				b.ReportMetric(w.Workspan.Seconds(), fmt.Sprintf("W%d-workspan-s", i+1))
			}
			b.ReportMetric(float64(last.DeadlineMisses()), "misses")
		})
	}
}

// BenchmarkFig12 regenerates the utilization experiment (3 recurrences).
func BenchmarkFig12(b *testing.B) {
	for _, spec := range experiments.AllSchedulers() {
		b.Run(spec.Name, func(b *testing.B) {
			cfg := experiments.DefaultFig11Config()
			cfg.Recurrences = 3
			var last *cluster.Result
			for i := 0; i < b.N; i++ {
				last = runScenario(b, cfg.Cluster(), cfg.Flows(), mustSpec(b, spec.Name), cfg.Seed, experiments.PlanMargin)
			}
			b.ReportMetric(last.Utilization(), "utilization")
		})
	}
}

func mustSpec(b *testing.B, name string) experiments.SchedulerSpec {
	b.Helper()
	spec, err := experiments.SchedulerByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return spec
}

// BenchmarkFig13a measures AssignTask cost per queue backend and queue
// length — the paper's scheduler-throughput scalability figure, as a true
// testing.B microbenchmark (throughput = 1/(ns/op)).
func BenchmarkFig13a(b *testing.B) {
	backends := []struct {
		name string
		mk   func() dsl.Queue
	}{
		{"DSL", func() dsl.Queue { return dsl.New(1) }},
		{"BST", func() dsl.Queue { return dsl.NewBST() }},
		{"Naive", func() dsl.Queue { return dsl.NewNaive() }},
	}
	for _, be := range backends {
		for _, n := range []int{100, 1000, 10000, 100000} {
			if be.name == "Naive" && n > 10000 {
				continue // hours of wall time; the collapse is visible at 10k
			}
			b.Run(fmt.Sprintf("%s/queue=%d", be.name, n), func(b *testing.B) {
				q := be.mk()
				fillQueue(q, n)
				now := simtime.Epoch
				b.ResetTimer()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					now = now.Add(5 * time.Millisecond)
					e, ok := q.Best(now)
					if !ok {
						b.Fatal("queue drained")
					}
					q.Scheduled(e.ID, now)
				}
			})
		}
	}
}

func fillQueue(q dsl.Queue, n int) {
	for i := 0; i < n; i++ {
		ttd := time.Duration(200+i%1800) * time.Second
		reqs := []plan.Req{
			{TTD: ttd, Cum: 10},
			{TTD: ttd / 2, Cum: 50},
			{TTD: ttd / 4, Cum: 90},
		}
		deadline := simtime.FromSeconds(float64(600 + (i*7919)%100000))
		q.Add(dsl.NewEntry(i, deadline, reqs), 0)
	}
}

// BenchmarkFig13b measures plan generation and reports the plan-size
// series: maximum encoded size over a population reaching 1400+ tasks.
func BenchmarkFig13b(b *testing.B) {
	var last *experiments.Fig13bResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig13b(experiments.DefaultFig13bConfig())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.MaxBytes()), "max-plan-bytes")
}

// BenchmarkTimelines regenerates the Fig 14-19 slot-allocation series
// (the full six-scheduler run with observers attached).
func BenchmarkTimelines(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig11(experiments.DefaultFig11Config())
		if err != nil {
			b.Fatal(err)
		}
		rows = 0
		for _, tl := range res.Timelines {
			rows += len(tl.Series(0, cluster.MapSlot))
		}
	}
	b.ReportMetric(float64(rows), "series-points")
}

// --- Ablation benches for the design choices DESIGN.md calls out. ---

// ablationScenario runs the Fig 11 workload under WOHA-LPF with tweaks.
func ablationScenario(b *testing.B, margin float64, mutate func(*cluster.Config)) *cluster.Result {
	b.Helper()
	cfg := experiments.DefaultFig11Config()
	cc := cfg.Cluster()
	if mutate != nil {
		mutate(&cc)
	}
	return runScenario(b, cc, cfg.Flows(), mustSpec(b, "WOHA-LPF"), cfg.Seed, margin)
}

// runScenario runs flows on a cluster configured by cc under spec as one
// serial runner cell, planning WOHA workflows through a private planner at
// margin.
func runScenario(b *testing.B, cc cluster.Config, flows []*workflow.Workflow, spec experiments.SchedulerSpec, seed int64, margin float64) *cluster.Result {
	b.Helper()
	cell := experiments.ScenarioCell(spec.Name, cc, flows, spec, seed, nil, planner.New(planner.Config{Margin: margin}))
	results, err := runner.New(runner.Config{Workers: 1}).RunAll([]runner.Cell{cell})
	if err != nil {
		b.Fatal(err)
	}
	return results[0]
}

// BenchmarkAblationPlanMargin sweeps the plan safety margin: 1.0 is the
// paper-literal minimum cap; smaller margins buy slack against the
// single-pool model's optimism.
func BenchmarkAblationPlanMargin(b *testing.B) {
	for _, margin := range []float64{1.0, 0.95, 0.85, 0.7} {
		b.Run(fmt.Sprintf("margin=%.2f", margin), func(b *testing.B) {
			var last *cluster.Result
			for i := 0; i < b.N; i++ {
				last = ablationScenario(b, margin, nil)
			}
			b.ReportMetric(float64(last.DeadlineMisses()), "misses")
			b.ReportMetric(last.TotalTardiness().Seconds(), "total-tard-s")
		})
	}
}

// BenchmarkAblationSubmitterOverhead sweeps the modeled cost of WOHA's
// map-only submitter job (jar loading + task init per wjob activation).
func BenchmarkAblationSubmitterOverhead(b *testing.B) {
	for _, overhead := range []time.Duration{0, 2 * time.Second, 10 * time.Second, 30 * time.Second} {
		b.Run(fmt.Sprintf("overhead=%s", overhead), func(b *testing.B) {
			var last *cluster.Result
			for i := 0; i < b.N; i++ {
				last = ablationScenario(b, experiments.PlanMargin, func(cc *cluster.Config) {
					cc.SubmitterOverhead = overhead
				})
			}
			b.ReportMetric(float64(last.DeadlineMisses()), "misses")
			b.ReportMetric(last.Makespan.Seconds(), "makespan-s")
		})
	}
}

// BenchmarkAblationHeartbeat compares instant dispatch against
// heartbeat-driven dispatch at Hadoop's default 3s interval and beyond.
func BenchmarkAblationHeartbeat(b *testing.B) {
	for _, hb := range []time.Duration{0, 3 * time.Second, 10 * time.Second} {
		b.Run(fmt.Sprintf("heartbeat=%s", hb), func(b *testing.B) {
			var last *cluster.Result
			for i := 0; i < b.N; i++ {
				last = ablationScenario(b, experiments.PlanMargin, func(cc *cluster.Config) {
					cc.HeartbeatInterval = hb
				})
			}
			b.ReportMetric(float64(last.DeadlineMisses()), "misses")
			b.ReportMetric(last.Makespan.Seconds(), "makespan-s")
		})
	}
}

// BenchmarkAblationNoise sweeps task-duration estimation error, probing the
// paper's claim that F_i is "just a rough estimation" and the scheduler
// tolerates inaccuracy.
func BenchmarkAblationNoise(b *testing.B) {
	for _, noise := range []float64{0, 0.1, 0.3, 0.5} {
		b.Run(fmt.Sprintf("noise=%.1f", noise), func(b *testing.B) {
			var last *cluster.Result
			for i := 0; i < b.N; i++ {
				last = ablationScenario(b, experiments.PlanMargin, func(cc *cluster.Config) {
					cc.Noise = noise
					cc.Seed = 42
				})
			}
			b.ReportMetric(float64(last.DeadlineMisses()), "misses")
		})
	}
}

// BenchmarkAblationDeadlineScheme compares the SLA-cohort deadline scheme
// against per-workflow stretch deadlines on the Yahoo workload.
func BenchmarkAblationDeadlineScheme(b *testing.B) {
	schemes := []struct {
		name   string
		scheme workload.DeadlineScheme
	}{
		{"SLA", workload.DeadlineSLA},
		{"Stretch", workload.DeadlineStretch},
	}
	for _, sc := range schemes {
		b.Run(sc.name, func(b *testing.B) {
			cfg := experiments.DefaultFig8Config()
			cfg.Yahoo.Scheme = sc.scheme
			cfg.Sizes = []int{240}
			var last *experiments.Fig8Result
			for i := 0; i < b.N; i++ {
				res, err := experiments.Fig8(cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.MissRatio["WOHA-LPF"][0], "woha-lpf-miss")
			b.ReportMetric(last.MissRatio["EDF"][0], "edf-miss")
		})
	}
}

// BenchmarkAblationNormalizedLag compares the paper's absolute-lag priority
// against the normalized (relative-progress) extension on the Yahoo
// workload under stretch deadlines, where task-count heterogeneity bites
// hardest: misses stay equal but total tardiness drops 15-25%.
func BenchmarkAblationNormalizedLag(b *testing.B) {
	for _, normalized := range []bool{false, true} {
		b.Run(fmt.Sprintf("normalized=%v", normalized), func(b *testing.B) {
			var last *cluster.Result
			for i := 0; i < b.N; i++ {
				ycfg := workload.DefaultYahooConfig()
				ycfg.Scheme = workload.DeadlineStretch
				flows, err := workload.Yahoo(ycfg)
				if err != nil {
					b.Fatal(err)
				}
				multi := workload.MultiJob(flows)
				cc := cluster.Config{Nodes: 120, MapSlotsPerNode: 2, ReduceSlotsPerNode: 2, Seed: 1}
				pol := core.NewScheduler(core.Options{Seed: 1, PolicyName: "LPF", NormalizedLag: normalized})
				sim, err := cluster.New(cc, pol, nil)
				if err != nil {
					b.Fatal(err)
				}
				for _, w := range multi {
					p, err := plan.GenerateCappedTyped(w,
						plan.Caps{Maps: cc.MapSlots(), Reduces: cc.ReduceSlots()},
						priority.LPF{}, experiments.PlanMargin)
					if err != nil {
						b.Fatal(err)
					}
					if err := sim.Submit(w, p); err != nil {
						b.Fatal(err)
					}
				}
				res, err := sim.Run()
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.MissRatio(), "miss-ratio")
			b.ReportMetric(last.TotalTardiness().Seconds(), "total-tard-s")
		})
	}
}

// BenchmarkAblationFailures measures deadline degradation under node
// failure storms on the Fig 11 scenario.
func BenchmarkAblationFailures(b *testing.B) {
	for _, failed := range []int{0, 2, 6} {
		b.Run(fmt.Sprintf("failed-nodes=%d", failed), func(b *testing.B) {
			var last *cluster.Result
			for i := 0; i < b.N; i++ {
				last = ablationScenario(b, experiments.PlanMargin, func(c *cluster.Config) {
					for n := 0; n < failed; n++ {
						c.Failures = append(c.Failures, cluster.Failure{
							Node:     n,
							At:       simtime.FromSeconds(float64(600 + 300*n)),
							Downtime: 10 * time.Minute,
						})
					}
				})
			}
			b.ReportMetric(float64(last.DeadlineMisses()), "misses")
			b.ReportMetric(float64(last.TasksStarted), "task-attempts")
		})
	}
}
