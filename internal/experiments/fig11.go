package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/runner"
	"repro/internal/simtime"
	"repro/internal/workflow"
	"repro/internal/workload"
)

// Fig11Config parameterizes the synthetic-workflow experiments of
// Fig 11 / Fig 12 / Fig 14-19: three Fig 7 workflows submitted 5 minutes
// apart with relative deadlines 80, 70, and 60 minutes on a 32-slave cluster
// (2 map + 1 reduce slot per slave).
type Fig11Config struct {
	// Scale multiplies all task durations of the Fig 7 topology.
	Scale float64
	// Slaves is the cluster size (paper: 32).
	Slaves int
	// Recurrences repeats the three-workflow pattern; Fig 12 uses 3.
	Recurrences int
	// Period separates successive recurrences.
	Period time.Duration
	// Seed drives WOHA's queue PRNG.
	Seed int64
	// Workers caps how many of the six scheduler cells run concurrently;
	// 0 selects one per core, 1 runs serially. Results are identical at
	// any worker count (see internal/runner).
	Workers int
	// Planner serves every WOHA cell's plans, at its margin (see
	// plan.GenerateCappedMargin). A cached one shares them with any other
	// sweep using it — the Fig 7 templates recur across recurrences and
	// experiments; nil gives the sweep a caching planner of its own at
	// planner.DefaultMargin.
	Planner *planner.Planner
	// Obs optionally instruments the sweep's runner (woha_runner_* metrics).
	Obs *obs.Obs
}

// DefaultFig11Config matches the paper's setup. Scale is calibrated so the
// cluster sits in the contended-but-feasible regime where scheduler choice
// decides deadline satisfaction (see EXPERIMENTS.md).
func DefaultFig11Config() Fig11Config {
	return Fig11Config{
		Scale:       1.70,
		Slaves:      32,
		Recurrences: 1,
		Period:      85 * time.Minute,
		Seed:        1,
	}
}

// Cluster returns the cluster configuration for cfg.
func (cfg Fig11Config) Cluster() cluster.Config {
	return cluster.Config{
		Nodes:              cfg.Slaves,
		MapSlotsPerNode:    2,
		ReduceSlotsPerNode: 1,
		Seed:               cfg.Seed,
	}
}

// Flows builds the workflow population: per recurrence r, three Fig 7
// workflows released at r*Period + {0, 5, 10} minutes with relative
// deadlines 80, 70, 60 minutes — later releases face earlier deadlines.
func (cfg Fig11Config) Flows() []*workflow.Workflow {
	n := cfg.Recurrences
	if n < 1 {
		n = 1
	}
	var flows []*workflow.Workflow
	for r := 0; r < n; r++ {
		base := simtime.Epoch.Add(time.Duration(r) * cfg.Period)
		for i := 0; i < 3; i++ {
			release := base.Add(time.Duration(i*5) * time.Minute)
			relDeadline := time.Duration(80-10*i) * time.Minute
			name := fmt.Sprintf("W-%d", i+1)
			if n > 1 {
				name = fmt.Sprintf("W-%d.%d", i+1, r+1)
			}
			flows = append(flows, workload.Fig7(name, cfg.Scale, release, release.Add(relDeadline)))
		}
	}
	return flows
}

// Fig11Result holds per-scheduler outcomes of the synthetic experiment.
type Fig11Result struct {
	Config Fig11Config
	// Results maps scheduler name to the full run result, in
	// AllSchedulers order via Order.
	Order   []string
	Results map[string]*cluster.Result
	// Timelines maps scheduler name to its slot-allocation recording
	// (the Fig 14-19 panels).
	Timelines map[string]*metrics.Timeline
}

// Fig11Cells builds the sweep's scenario cells — one per scheduler. Each
// cell records its slot-allocation timeline into timelines at the cell's
// index (the factory runs on the cell's worker, so distinct cells touch
// distinct entries).
func Fig11Cells(cfg Fig11Config) (cells []runner.Cell, timelines []*metrics.Timeline) {
	specs := AllSchedulers()
	flows := cfg.Flows()
	pl := sweepPlanner(cfg.Planner)
	timelines = make([]*metrics.Timeline, len(specs))
	cells = make([]runner.Cell, len(specs))
	for i, spec := range specs {
		cells[i] = ScenarioCell(spec.Name, cfg.Cluster(), flows, spec, cfg.Seed, func() cluster.Observer {
			timelines[i] = metrics.NewTimeline()
			return timelines[i]
		}, pl)
	}
	return cells, timelines
}

// Fig11 runs the six schedulers on the Fig 11 workload, fanning the
// independent cells over cfg.Workers.
func Fig11(cfg Fig11Config) (*Fig11Result, error) {
	cells, timelines := Fig11Cells(cfg)
	results, err := runner.New(runner.Config{Workers: cfg.Workers, Obs: cfg.Obs}).RunAll(cells)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	out := &Fig11Result{
		Config:    cfg,
		Results:   make(map[string]*cluster.Result),
		Timelines: make(map[string]*metrics.Timeline),
	}
	for i, spec := range AllSchedulers() {
		out.Order = append(out.Order, spec.Name)
		out.Results[spec.Name] = results[i]
		out.Timelines[spec.Name] = timelines[i]
	}
	return out, nil
}

// WorkspanTable renders Fig 11: the workspan of each workflow under each
// scheduler, with deadline-met marks.
func (r *Fig11Result) WorkspanTable() *Table {
	t := &Table{
		Title:  "Fig 11: Synthetic workflow workspan (seconds) - 32 slaves",
		Note:   "three Fig-7 workflows, releases 0/5/10 min, relative deadlines 80/70/60 min; * marks a deadline miss",
		Header: []string{"scheduler"},
	}
	first := r.Results[r.Order[0]]
	for _, w := range first.Workflows {
		t.Header = append(t.Header, w.Name)
	}
	for _, name := range r.Order {
		row := []string{name}
		for _, w := range r.Results[name].Workflows {
			cell := fmt.Sprintf("%.0f", w.Workspan.Seconds())
			if !w.Met {
				cell += "*"
			}
			row = append(row, cell)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// UtilizationTable renders Fig 12: overall cluster utilization per
// scheduler.
func (r *Fig11Result) UtilizationTable() *Table {
	t := &Table{
		Title:  "Fig 12: Cluster utilization",
		Note:   fmt.Sprintf("%d recurrence(s) of the Fig-11 workload", max(1, r.Config.Recurrences)),
		Header: []string{"scheduler", "utilization", "map-util", "reduce-util"},
	}
	for _, name := range r.Order {
		res := r.Results[name]
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%.3f", res.Utilization()),
			fmt.Sprintf("%.3f", res.MapUtilization()),
			fmt.Sprintf("%.3f", res.ReduceUtilization()),
		})
	}
	return t
}

// WriteTimelines emits the Fig 14-19 slot-allocation series: for each
// scheduler, one CSV per slot type, via the open callback (which receives a
// file-stem such as "fig14_FIFO_map" and returns the destination).
func (r *Fig11Result) WriteTimelines(open func(stem string) (io.WriteCloser, error)) error {
	// The paper's panel order: Fig 14 FIFO, 15 EDF, 16 Fair, 17 WOHA-LPF,
	// 18 WOHA-HLF, 19 WOHA-MPF.
	panels := []struct {
		fig  int
		name string
	}{
		{14, "FIFO"}, {15, "EDF"}, {16, "Fair"},
		{17, "WOHA-LPF"}, {18, "WOHA-HLF"}, {19, "WOHA-MPF"},
	}
	for _, p := range panels {
		tl, ok := r.Timelines[p.name]
		if !ok {
			return fmt.Errorf("experiments: no timeline for %s", p.name)
		}
		for _, st := range []cluster.SlotType{cluster.MapSlot, cluster.ReduceSlot} {
			w, err := open(fmt.Sprintf("fig%d_%s_%s", p.fig, p.name, st))
			if err != nil {
				return err
			}
			err = tl.WriteCSV(w, st)
			if cerr := w.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return fmt.Errorf("experiments: writing %s timeline for %s: %w", st, p.name, err)
			}
		}
	}
	return nil
}
