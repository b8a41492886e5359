// Command wohabench regenerates the WOHA paper's evaluation figures on the
// simulated cluster and prints each as a table. With -timeline-dir it also
// writes the Fig 14-19 slot-allocation CSVs, and with -trace-out it records
// the Fig 11 scenario as a Chrome trace-event file for Perfetto.
//
// The admission and federation figures are model sweeps beyond the paper:
// rejected-vs-missed over a shrinking cluster (experiments.AdmissionSweep) and
// miss rate against load-snapshot staleness (experiments.FederationSweep).
//
// wohabench measures no speed. Throughput and latency come from
// `go run ./benchmark` (repeats, spreads, a committed baseline and a
// per-layer ledger; see benchmark/README.md), under metric names such as
// cluster.ns_per_event, planner.plans_per_s, live.heartbeats_per_s and
// core.next_task_ns_mean.
//
// Usage:
//
//	wohabench [-fig NAME] [-timeline-dir DIR] [-trace-out FILE] [-postmortem-out FILE] [-metrics-addr ADDR]
//
// NAME is one of figNames; wohabench -h prints them.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	woha "repro"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/planner"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate ("+strings.Join(figNames, ", ")+")")
	timelineDir := flag.String("timeline-dir", "", "directory to write Fig 14-19 CSVs into (empty = skip)")
	traceOut := flag.String("trace-out", "", "record the Fig 11 scenario under WOHA-LPF as Chrome trace-event JSON to this file (open in ui.perfetto.dev)")
	pmOut := flag.String("postmortem-out", "", "replay the Fig 11 scenario under WOHA-LPF with event capture and write the miss root-cause JSON report to this file")
	metricsAddr := flag.String("metrics-addr", "", "serve the introspection plane (/metrics, /statusz, /debug/pprof) on this address during the run (e.g. :8080; :0 picks a free port) and print a final scrape")
	flag.Parse()

	var (
		ins *woha.Instrumentation
		srv *woha.IntrospectionServer
	)
	if *metricsAddr != "" {
		ins = woha.NewInstrumentation(woha.NewMetrics(), nil)
		ins.EnableHealth(woha.HealthConfig{})
		var err error
		srv, err = woha.ServeIntrospection(*metricsAddr, ins)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wohabench:", err)
			os.Exit(1)
		}
		fmt.Printf("introspection: serving http://%s/metrics, /statusz, /debug/pprof/\n", srv.Addr())
	}
	finish := func() {
		if srv == nil {
			return
		}
		if err := srv.DumpMetrics(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "wohabench:", err)
			os.Exit(1)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "wohabench:", err)
			os.Exit(1)
		}
	}

	if *traceOut != "" {
		if err := writeTrace(*traceOut, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "wohabench:", err)
			os.Exit(1)
		}
	}
	if *pmOut != "" {
		if err := writePostmortem(*pmOut, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "wohabench:", err)
			os.Exit(1)
		}
	}
	if (*traceOut != "" || *pmOut != "") && *fig == "all" && *timelineDir == "" {
		finish()
		return // capture flags alone: skip the full figure sweep
	}

	if err := run(*fig, *timelineDir, os.Stdout, ins); err != nil {
		fmt.Fprintln(os.Stderr, "wohabench:", err)
		os.Exit(1)
	}
	finish()
}

// writePostmortem replays the Fig 11 workload under WOHA-LPF with event
// capture on, reconstructs every missed workflow's timeline, and writes the
// root-cause report: JSON to path, text summary plus a per-miss table (with
// a blame column) to out.
func writePostmortem(path string, out io.Writer) error {
	ring := woha.NewEventRing(1 << 20)
	ins := woha.NewInstrumentation(nil, ring)
	ins.EnableHealth(woha.HealthConfig{})
	pl := woha.NewPlanner(woha.PlannerConfig{CacheSize: 256, Margin: experiments.PlanMargin, Obs: ins})
	cfg := woha.ClusterConfig{Nodes: 32, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1}
	sched, err := experiments.SchedulerByName("WOHA-LPF")
	if err != nil {
		return err
	}
	sess, err := woha.NewSession(cfg, woha.SchedulerWOHALPF,
		woha.WithInstrumentation(ins), woha.WithPlanner(pl))
	if err != nil {
		return err
	}
	var specs []woha.PostmortemSpec
	for i, w := range experiments.DefaultFig11Config().Flows() {
		if err := sess.Submit(w); err != nil {
			return err
		}
		// The shared cached planner already simulated this key for the
		// session, so the spec's plan is a cache hit, not a second search.
		p, err := pl.Plan(w, plan.Caps{Maps: cfg.MapSlots(), Reduces: cfg.ReduceSlots()}, sched.Priority)
		if err != nil {
			return err
		}
		specs = append(specs, woha.PostmortemSpec{Workflow: i, Spec: w, Plan: p})
	}
	if _, err := sess.Run(); err != nil {
		return err
	}
	rep := woha.AnalyzePostmortem(ring.Events(), specs)
	f, err := os.Create(path)
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
	fmt.Fprintf(out, "postmortem report written to %s\n", path)
	if err := rep.WriteText(out); err != nil {
		return err
	}
	return postmortemTable(rep, out)
}

// postmortemTable renders one row per missed workflow with the attribution
// condensed into a first-unmet-requirement column and a blame column.
func postmortemTable(rep *woha.PostmortemReport, out io.Writer) error {
	if len(rep.Missed) == 0 {
		return nil
	}
	sec := func(us int64) string { return fmt.Sprintf("%.0fs", float64(us)/1e6) }
	fmt.Fprintf(out, "%-12s %10s %10s %22s  %s\n",
		"workflow", "deadline", "tardiness", "first-unmet-F_i", "blame")
	for _, m := range rep.Missed {
		fi := "-"
		if rm := m.FirstUnmetReq; rm != nil {
			fi = fmt.Sprintf("%d/%d at ttd=%s", rm.Scheduled, rm.Cum, sec(rm.TTDUS))
		}
		bl := "-"
		if b := m.Blame; b != nil {
			bl = fmt.Sprintf("j%d %s %s (wait %s, run %s)", b.Job, b.Name, b.Stage, sec(b.WaitUS), sec(b.RunUS))
		}
		if _, err := fmt.Fprintf(out, "%-12s %10s %10s %22s  %s\n",
			m.Name, sec(m.DeadlineUS), sec(m.TardinessUS), fi, bl); err != nil {
			return err
		}
	}
	return nil
}

// writeTrace replays the Fig 11 workload (the 33-job demo topology x3) under
// WOHA-LPF with event capture on and renders the run as a Perfetto-loadable
// trace with per-tracker and per-workflow tracks.
func writeTrace(path string, out io.Writer) error {
	ring := woha.NewEventRing(1 << 16)
	ins := woha.NewInstrumentation(nil, ring)
	ins.EnableHealth(woha.HealthConfig{}) // slack counter tracks in the trace
	sess, err := woha.NewSession(woha.ClusterConfig{
		Nodes:              32,
		MapSlotsPerNode:    2,
		ReduceSlotsPerNode: 1,
	}, woha.SchedulerWOHALPF, woha.WithInstrumentation(ins))
	if err != nil {
		return err
	}
	for _, w := range experiments.DefaultFig11Config().Flows() {
		if err := sess.Submit(w); err != nil {
			return err
		}
	}
	if _, err := sess.Run(); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	events := ring.Events()
	if err := woha.WriteTrace(f, events); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "trace: %d events written to %s (open in ui.perfetto.dev or chrome://tracing)\n",
		len(events), path)
	return nil
}

// figNames is every accepted -fig value, in the order the flag help and the
// unknown-figure error list them.
var figNames = []string{
	"all", "2", "3", "5", "6", "8", "9", "10", "11", "12", "13a", "13b",
	"ablations", "admission", "federation",
}

func run(fig, timelineDir string, out io.Writer, ins *woha.Instrumentation) error {
	if !slices.Contains(figNames, fig) {
		return fmt.Errorf("unknown figure %q (want one of %s)", fig, strings.Join(figNames, ", "))
	}
	want := func(names ...string) bool {
		if fig == "all" {
			return true
		}
		for _, n := range names {
			if fig == n {
				return true
			}
		}
		return false
	}

	// One coalescing plan service spans every figure's cells: within a sweep
	// each distinct (shape, caps, policy) key is simulated exactly once, and
	// across figures recurring templates — Fig 12 re-running the Fig 11
	// workload with three recurrences, say — are served from the same cache.
	// With -metrics-addr the sweep reuses the served instrumentation, so the
	// planner and runner counters land on the live /metrics endpoint.
	sweepObs := (*obs.Obs)(ins)
	if sweepObs == nil {
		sweepObs = obs.New(obs.NewRegistry(), nil)
	}
	pl := planner.New(planner.Config{CacheSize: 4096, Margin: experiments.PlanMargin, Obs: sweepObs})

	if want("2") {
		res, err := experiments.Fig2()
		if err != nil {
			return err
		}
		if err := res.Table().Render(out); err != nil {
			return err
		}
	}
	if want("3") {
		res, err := experiments.Fig3(experiments.DefaultFig3Config())
		if err != nil {
			return err
		}
		if err := res.Table().Render(out); err != nil {
			return err
		}
	}
	if want("5", "6") {
		res := experiments.Fig56(experiments.DefaultFig56Config())
		if want("5") {
			if err := res.Fig5Table().Render(out); err != nil {
				return err
			}
		}
		if want("6") {
			if err := res.Fig6Table().Render(out); err != nil {
				return err
			}
		}
	}
	if want("8", "9", "10") {
		cfg := experiments.DefaultFig8Config()
		cfg.Planner = pl
		cfg.Obs = sweepObs
		var res *experiments.Fig8Result
		var err error
		if want("8") {
			// Stream Fig 8 row by row: each scheduler's line prints as soon
			// as its three cells finish, while the remaining schedulers are
			// still simulating — byte-identical to MissTable().Render on the
			// completed sweep.
			tw, twErr := experiments.NewTableWriter(out, experiments.Fig8MissTitle, "", cfg.SizesHeader())
			if twErr != nil {
				return twErr
			}
			res, err = experiments.Fig8Each(cfg, func(row experiments.Fig8Row) error {
				cells := []string{row.Scheduler}
				for _, v := range row.MissRatio {
					cells = append(cells, fmt.Sprintf("%.3f", v))
				}
				return tw.Row(cells)
			})
			if err == nil {
				err = tw.Close()
			}
		} else {
			res, err = experiments.Fig8(cfg)
		}
		if err != nil {
			return err
		}
		if want("9") {
			if err := res.MaxTardTable().Render(out); err != nil {
				return err
			}
		}
		if want("10") {
			if err := res.TotalTardTable().Render(out); err != nil {
				return err
			}
		}
	}
	if want("11") || timelineDir != "" {
		cfg := experiments.DefaultFig11Config()
		cfg.Planner = pl
		cfg.Obs = sweepObs
		res, err := experiments.Fig11(cfg)
		if err != nil {
			return err
		}
		if want("11") {
			if err := res.WorkspanTable().Render(out); err != nil {
				return err
			}
		}
		if timelineDir != "" {
			if err := os.MkdirAll(timelineDir, 0o755); err != nil {
				return err
			}
			err := res.WriteTimelines(func(stem string) (io.WriteCloser, error) {
				return os.Create(filepath.Join(timelineDir, stem+".csv"))
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "Fig 14-19 timelines written to %s\n\n", timelineDir)
		}
	}
	if want("12") {
		cfg := experiments.DefaultFig11Config()
		cfg.Recurrences = 3
		cfg.Planner = pl
		cfg.Obs = sweepObs
		res, err := experiments.Fig11(cfg)
		if err != nil {
			return err
		}
		if err := res.UtilizationTable().Render(out); err != nil {
			return err
		}
	}
	if want("13a") {
		res := experiments.Fig13a(experiments.DefaultFig13aConfig())
		if err := res.Table().Render(out); err != nil {
			return err
		}
	}
	if want("ablations") {
		f11, err := experiments.AblationsFig11()
		if err != nil {
			return err
		}
		if err := experiments.AblationTable("Ablations: simulator knobs (Fig 11 scenario, WOHA-LPF)", f11).Render(out); err != nil {
			return err
		}
		yah, err := experiments.AblationsYahoo()
		if err != nil {
			return err
		}
		if err := experiments.AblationTable("Ablations: policy knobs (Yahoo workload, 240m-240r, WOHA-LPF)", yah).Render(out); err != nil {
			return err
		}
	}
	if want("13b") {
		res, err := experiments.Fig13b(experiments.DefaultFig13bConfig())
		if err != nil {
			return err
		}
		if err := res.Table().Render(out); err != nil {
			return err
		}
	}
	if want("admission") {
		res, err := experiments.AdmissionSweep(experiments.DefaultAdmissionSweepConfig())
		if err != nil {
			return err
		}
		if err := res.Table().Render(out); err != nil {
			return err
		}
	}
	if want("federation") {
		res, err := experiments.FederationSweep(experiments.DefaultFederationSweepConfig())
		if err != nil {
			return err
		}
		if err := res.Table().Render(out); err != nil {
			return err
		}
	}
	return nil
}
