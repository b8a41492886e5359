package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/planner"
	"repro/internal/runner"
	"repro/internal/workflow"
	"repro/internal/workload"
)

// AblationResult is one variant's outcome in an ablation table.
type AblationResult struct {
	Variant   string
	Misses    int
	Workflows int
	TotalTard time.Duration
	Makespan  time.Duration
}

// lpfPlans builds the WOHA-LPF plan factory for a cell: typed, resource-
// capped plans for flows against cc, served by pl at its margin.
func lpfPlans(flows []*workflow.Workflow, cc cluster.Config, pl *planner.Planner) func() ([]*plan.Plan, error) {
	lpf, _ := SchedulerByName("WOHA-LPF") // a name in the table: cannot fail
	return PlansFactory(flows, cc, lpf, pl)
}

// ablate runs the variant cells over the default worker pool and collapses
// each result into a table row.
func ablate(variants []string, cells []runner.Cell) ([]AblationResult, error) {
	results, err := runner.New(runner.Config{}).RunAll(cells)
	if err != nil {
		return nil, fmt.Errorf("experiments: ablation: %w", err)
	}
	out := make([]AblationResult, len(results))
	for i, res := range results {
		out[i] = AblationResult{
			Variant:   variants[i],
			Misses:    res.DeadlineMisses(),
			Workflows: len(res.Workflows),
			TotalTard: res.TotalTardiness(),
			Makespan:  res.Makespan.Duration(),
		}
	}
	return out, nil
}

// AblationsFig11 sweeps the simulator-level design knobs on the Fig 11
// scenario under WOHA-LPF: plan safety margin, submitter-job overhead,
// heartbeat-driven dispatch and estimation noise.
func AblationsFig11() ([]AblationResult, error) {
	base := DefaultFig11Config()
	flows := base.Flows()

	steps := []struct {
		variant string
		margin  float64
		mutate  func(*cluster.Config)
	}{
		{fmt.Sprintf("baseline (margin %.2f)", planner.DefaultMargin), PlanMargin, nil},
		{"margin 1.00 (paper-literal cap)", 1.0, nil},
		{"margin 0.70", 0.70, nil},
		{"submitter overhead 10s", PlanMargin, func(c *cluster.Config) { c.SubmitterOverhead = 10 * time.Second }},
		{"heartbeat 3s", PlanMargin, func(c *cluster.Config) { c.HeartbeatInterval = 3 * time.Second }},
		{"noise 30%", PlanMargin, func(c *cluster.Config) { c.Noise = 0.3; c.Seed = 42 }},
	}
	variants := make([]string, len(steps))
	cells := make([]runner.Cell, len(steps))
	for i, s := range steps {
		cc := base.Cluster()
		if s.mutate != nil {
			s.mutate(&cc)
		}
		variants[i] = s.variant
		cells[i] = runner.Cell{
			Name:   "fig11-ablation/" + s.variant,
			Config: cc,
			Policy: func() cluster.Policy {
				return core.NewScheduler(core.Options{Seed: base.Seed, PolicyName: "LPF"})
			},
			Flows: flows,
			// A planner plans at one margin, so each variant has its own.
			Plans: lpfPlans(flows, cc, planner.New(planner.Config{Margin: s.margin})),
		}
	}
	return ablate(variants, cells)
}

// AblationsYahoo sweeps the policy-level design knobs on the Yahoo workload
// at 240m-240r: overdue handling, normalized lag, and the deadline scheme.
func AblationsYahoo() ([]AblationResult, error) {
	steps := []struct {
		variant string
		scheme  workload.DeadlineScheme
		opts    core.Options
	}{
		{"baseline (SLA deadlines)", workload.DeadlineSLA, core.Options{}},
		{"serve overdue first (paper-literal)", workload.DeadlineSLA, core.Options{ServeOverdueFirst: true}},
		{"normalized lag", workload.DeadlineSLA, core.Options{NormalizedLag: true}},
		{"stretch deadlines", workload.DeadlineStretch, core.Options{}},
		{"stretch + normalized lag", workload.DeadlineStretch, core.Options{NormalizedLag: true}},
		{"stretch + serve overdue first", workload.DeadlineStretch, core.Options{ServeOverdueFirst: true}},
	}
	cc := cluster.Config{Nodes: 120, MapSlotsPerNode: 2, ReduceSlotsPerNode: 2, Seed: 1}
	variants := make([]string, len(steps))
	cells := make([]runner.Cell, len(steps))
	// All six variants plan at the default margin against the same caps, and
	// the three variants per deadline scheme share their workload's
	// structure, so one coalescing planner serves each distinct plan once
	// across the sweep.
	pl := planner.New(planner.Config{CacheSize: 256})
	for i, s := range steps {
		ycfg := workload.DefaultYahooConfig()
		ycfg.Scheme = s.scheme
		flows, err := workload.Yahoo(ycfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation %q: %w", s.variant, err)
		}
		multi := workload.MultiJob(flows)
		opts := s.opts
		opts.Seed = 1
		opts.PolicyName = "LPF"
		variants[i] = s.variant
		cells[i] = runner.Cell{
			Name:   "yahoo-ablation/" + s.variant,
			Config: cc,
			Policy: func() cluster.Policy { return core.NewScheduler(opts) },
			Flows:  multi,
			Plans:  lpfPlans(multi, cc, pl),
		}
	}
	return ablate(variants, cells)
}

// AblationTable renders a set of ablation results.
func AblationTable(title string, results []AblationResult) *Table {
	t := &Table{
		Title:  title,
		Header: []string{"variant", "misses", "total-tardiness", "makespan"},
	}
	for _, r := range results {
		t.Rows = append(t.Rows, []string{
			r.Variant,
			fmt.Sprintf("%d/%d", r.Misses, r.Workflows),
			fmt.Sprintf("%.0fs", r.TotalTard.Seconds()),
			fmt.Sprintf("%.0fs", r.Makespan.Seconds()),
		})
	}
	return t
}
