package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/runner"
	"repro/internal/workload"
)

// Fig8Config parameterizes the Yahoo-trace experiments of Fig 8 / Fig 9 /
// Fig 10: the 61-workflow population (single-job workflows removed, as in
// the paper) run on clusters of 200, 240, and 280 map and reduce slots under
// all six schedulers.
type Fig8Config struct {
	// Yahoo builds the workflow population.
	Yahoo workload.YahooConfig
	// Sizes lists the per-type slot counts; "200" means 200 map + 200
	// reduce slots.
	Sizes []int
	// Seed drives WOHA's queue PRNG.
	Seed int64
	// Workers caps how many of the 18 scheduler x size cells run
	// concurrently; 0 selects one per core, 1 runs serially. Results are
	// identical at any worker count (see internal/runner).
	Workers int
	// Planner serves every WOHA cell's plans, at its margin: each distinct
	// (DAG shape, caps, job ordering) key is simulated once no matter how many
	// cells or recurring template instances request it. Pass a cached one to
	// share plans with other sweeps; nil gives the sweep a caching planner
	// of its own at planner.DefaultMargin.
	Planner *planner.Planner
	// Obs optionally instruments the sweep's runner (woha_runner_* metrics).
	Obs *obs.Obs
}

// DefaultFig8Config matches the paper's axis: 200m-200r, 240m-240r,
// 280m-280r.
func DefaultFig8Config() Fig8Config {
	return Fig8Config{
		Yahoo: workload.DefaultYahooConfig(),
		Sizes: []int{200, 240, 280},
		Seed:  1,
	}
}

// Fig8Result holds, per scheduler and cluster size, the three tardiness
// metrics of Fig 8-10.
type Fig8Result struct {
	Config Fig8Config
	Order  []string
	// MissRatio[name][k] is the deadline violation ratio at Sizes[k].
	MissRatio map[string][]float64
	// MaxTard[name][k] and TotalTard[name][k] are the Fig 9 / Fig 10
	// series.
	MaxTard   map[string][]time.Duration
	TotalTard map[string][]time.Duration
}

// Fig8Cells builds the sweep's scenario cells — one per scheduler x cluster
// size, in row-major presentation order. Exposed so the sim bench can time
// the exact experiment corpus.
func Fig8Cells(cfg Fig8Config) ([]runner.Cell, error) {
	flows, err := workload.Yahoo(cfg.Yahoo)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	multi := workload.MultiJob(flows)
	pl := sweepPlanner(cfg.Planner)

	var cells []runner.Cell
	for _, spec := range AllSchedulers() {
		for _, size := range cfg.Sizes {
			// Model the "200m-200r" axis as nodes with 2 map + 2 reduce
			// slots each.
			cc := cluster.Config{
				Nodes:              size / 2,
				MapSlotsPerNode:    2,
				ReduceSlotsPerNode: 2,
				Seed:               cfg.Seed,
			}
			// Cells share the workflow specs: the simulator never mutates
			// them, so reuse is safe across (even concurrent) runs.
			name := fmt.Sprintf("%s/%dm-%dr", spec.Name, size, size)
			cells = append(cells, ScenarioCell(name, cc, multi, spec, cfg.Seed, nil, pl))
		}
	}
	return cells, nil
}

// Fig8 runs the Yahoo workload across cluster sizes and schedulers,
// fanning the independent cells over cfg.Workers.
func Fig8(cfg Fig8Config) (*Fig8Result, error) {
	return Fig8Each(cfg, nil)
}

// Fig8Row is one scheduler's completed row of the Fig 8-10 sweep: the three
// tardiness metrics across cfg.Sizes, in size order.
type Fig8Row struct {
	Scheduler string
	MissRatio []float64
	MaxTard   []time.Duration
	TotalTard []time.Duration
}

// Fig8Each is Fig8 with streaming: rowFn (when non-nil) receives each
// scheduler's row as soon as that scheduler's cells have all finished —
// while later schedulers' cells are still executing — in presentation order.
// The sweep's cells run scheduler-major and the runner delivers results in
// submission order, so a row completes every len(cfg.Sizes) deliveries. An
// error from rowFn aborts streaming and is returned.
func Fig8Each(cfg Fig8Config, rowFn func(Fig8Row) error) (*Fig8Result, error) {
	cells, err := Fig8Cells(cfg)
	if err != nil {
		return nil, err
	}
	out := &Fig8Result{
		Config:    cfg,
		MissRatio: make(map[string][]float64),
		MaxTard:   make(map[string][]time.Duration),
		TotalTard: make(map[string][]time.Duration),
	}
	specs := AllSchedulers()
	for _, spec := range specs {
		out.Order = append(out.Order, spec.Name)
	}
	per := len(cfg.Sizes)
	err = runner.New(runner.Config{Workers: cfg.Workers, Obs: cfg.Obs}).RunEach(cells, func(i int, res *cluster.Result) error {
		name := specs[i/per].Name
		out.MissRatio[name] = append(out.MissRatio[name], res.MissRatio())
		out.MaxTard[name] = append(out.MaxTard[name], res.MaxTardiness())
		out.TotalTard[name] = append(out.TotalTard[name], res.TotalTardiness())
		if rowFn != nil && len(out.MissRatio[name]) == per {
			return rowFn(Fig8Row{
				Scheduler: name,
				MissRatio: out.MissRatio[name],
				MaxTard:   out.MaxTard[name],
				TotalTard: out.TotalTard[name],
			})
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return out, nil
}

// Fig8MissTitle is the Fig 8 table title, shared by MissTable and streamed
// renderings (see TableWriter) so the two can never diverge.
const Fig8MissTitle = "Fig 8: Deadline violation ratio (Yahoo workload, single-job workflows removed)"

// SizesHeader returns the header row of the Fig 8-10 tables: "scheduler"
// followed by one column per cluster size.
func (cfg Fig8Config) SizesHeader() []string {
	h := []string{"scheduler"}
	for _, s := range cfg.Sizes {
		h = append(h, fmt.Sprintf("%dm-%dr", s, s))
	}
	return h
}

// MissTable renders Fig 8: deadline violation ratio vs cluster size.
func (r *Fig8Result) MissTable() *Table {
	t := &Table{
		Title:  Fig8MissTitle,
		Header: r.Config.SizesHeader(),
	}
	for _, name := range r.Order {
		row := []string{name}
		for _, v := range r.MissRatio[name] {
			row = append(row, fmt.Sprintf("%.3f", v))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// MaxTardTable renders Fig 9: maximum tardiness (seconds) vs cluster size.
func (r *Fig8Result) MaxTardTable() *Table {
	t := &Table{
		Title:  "Fig 9: Max tardiness (seconds)",
		Header: r.Config.SizesHeader(),
	}
	for _, name := range r.Order {
		row := []string{name}
		for _, v := range r.MaxTard[name] {
			row = append(row, fmt.Sprintf("%.0f", v.Seconds()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// TotalTardTable renders Fig 10: total tardiness (seconds) vs cluster size.
func (r *Fig8Result) TotalTardTable() *Table {
	t := &Table{
		Title:  "Fig 10: Total tardiness (seconds)",
		Header: r.Config.SizesHeader(),
	}
	for _, name := range r.Order {
		row := []string{name}
		for _, v := range r.TotalTard[name] {
			row = append(row, fmt.Sprintf("%.0f", v.Seconds()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
