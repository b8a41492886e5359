// Package experiments regenerates every figure of the WOHA paper's
// evaluation (Section VI) on the simulated cluster: deadline satisfaction
// (Fig 8-11), utilization (Fig 12), scheduler scalability and plan size
// (Fig 13), slot-allocation timelines (Fig 14-19), the trace statistics
// (Fig 5-6), the progress-requirement change intervals (Fig 3), and the
// resource-cap motivating example (Fig 2).
//
// Each experiment returns a structured result plus a Table that prints the
// same rows/series the paper reports. EXPERIMENTS.md records paper-vs-
// measured for each.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/planner"
	"repro/internal/priority"
	"repro/internal/runner"
	"repro/internal/scheduler"
	"repro/internal/workflow"
)

// Table is a rendered experiment: the rows/series of one paper figure.
type Table struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
		return err
	}
	if t.Note != "" {
		if _, err := fmt.Fprintf(w, "  %s\n", t.Note); err != nil {
			return err
		}
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		return "  " + strings.Join(parts, "  ")
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "  "+strings.Repeat("-", sum(widths)+2*(len(widths)-1))); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// TableWriter renders a table incrementally — title and header up front, then
// one row at a time — so a figure can be printed as its rows are computed
// instead of after the whole sweep drains. Column widths are fixed from the
// header alone (a streaming writer cannot look ahead at unrendered rows);
// whenever no cell is wider than its column's header — true for every figure
// table in this package — the streamed output is byte-identical to
// Table.Render on the completed table.
type TableWriter struct {
	w      io.Writer
	widths []int
}

// NewTableWriter writes the table preamble (title, optional note, header,
// rule) and returns a writer for the rows.
func NewTableWriter(w io.Writer, title, note string, header []string) (*TableWriter, error) {
	if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
		return nil, err
	}
	if note != "" {
		if _, err := fmt.Fprintf(w, "  %s\n", note); err != nil {
			return nil, err
		}
	}
	tw := &TableWriter{w: w, widths: make([]int, len(header))}
	for i, h := range header {
		tw.widths[i] = len(h)
	}
	if err := tw.Row(header); err != nil {
		return nil, err
	}
	_, err := fmt.Fprintln(w, "  "+strings.Repeat("-", sum(tw.widths)+2*(len(tw.widths)-1)))
	if err != nil {
		return nil, err
	}
	return tw, nil
}

// Row writes one table row.
func (tw *TableWriter) Row(cells []string) error {
	parts := make([]string, len(cells))
	for i, c := range cells {
		parts[i] = fmt.Sprintf("%-*s", tw.widths[i], c)
	}
	_, err := fmt.Fprintln(tw.w, "  "+strings.Join(parts, "  "))
	return err
}

// Close ends the table with the same trailing blank line Table.Render emits.
func (tw *TableWriter) Close() error {
	_, err := fmt.Fprintln(tw.w)
	return err
}

// SchedulerSpec names one of the six schedulers compared throughout the
// evaluation and knows how to instantiate it.
type SchedulerSpec struct {
	// Name is the paper's label: EDF, FIFO, Fair, WOHA-LPF, WOHA-HLF,
	// WOHA-MPF.
	Name string
	// Priority is the intra-workflow policy used for WOHA plan generation;
	// nil for the ported baselines, which receive no plans.
	Priority priority.Policy
	// Queue selects the WOHA queue backend (ignored for baselines).
	Queue core.QueueKind
}

// New instantiates the policy. seed drives WOHA's skip-list PRNG; o, which
// may be nil, instruments WOHA's queue (the woha_queue_* series).
func (s SchedulerSpec) New(seed int64, o *obs.Obs) cluster.Policy {
	switch s.Name {
	case "EDF":
		return scheduler.NewEDF()
	case "FIFO":
		return scheduler.NewFIFO()
	case "Fair":
		return scheduler.NewFair()
	default:
		return core.NewScheduler(core.Options{
			Queue:      s.Queue,
			Seed:       seed,
			PolicyName: s.Priority.Name(),
			Obs:        o,
		})
	}
}

// Plans is the client side of the paper's submission pipeline: under WOHA it
// plans flows through pl against a cluster of caps, recording one
// PlanGenerated on o (which may be nil) per workflow, and returns the plans
// index-aligned with flows. The baselines receive no plans: nil, and pl is
// not consulted.
func (s SchedulerSpec) Plans(pl *planner.Planner, flows []*workflow.Workflow, caps plan.Caps, o *obs.Obs) ([]*plan.Plan, error) {
	if !s.IsWOHA() {
		return nil, nil
	}
	plans, err := pl.PlanAll(flows, caps, s.Priority)
	if err != nil {
		return nil, err
	}
	for i, w := range flows {
		o.PlanGenerated(w.Release, w.Name, plans[i].SearchIters)
	}
	return plans, nil
}

// IsWOHA reports whether the spec runs under the WOHA framework (and thus
// needs client-side plans).
func (s SchedulerSpec) IsWOHA() bool { return s.Priority != nil }

// AllSchedulers returns the six schedulers in the paper's presentation
// order: the three ported baselines, then WOHA with each job-priority
// policy.
func AllSchedulers() []SchedulerSpec {
	return []SchedulerSpec{
		{Name: "EDF"},
		{Name: "FIFO"},
		{Name: "Fair"},
		{Name: "WOHA-LPF", Priority: priority.LPF{}},
		{Name: "WOHA-HLF", Priority: priority.HLF{}},
		{Name: "WOHA-MPF", Priority: priority.MPF{}},
	}
}

// SchedulerByName returns the spec with the given paper label.
func SchedulerByName(name string) (SchedulerSpec, error) {
	for _, s := range AllSchedulers() {
		if s.Name == name {
			return s, nil
		}
	}
	return SchedulerSpec{}, fmt.Errorf("experiments: unknown scheduler %q", name)
}

// PlanMargin is the safety margin WOHA plans are generated with throughout
// the experiments, the planner's default: the resource-cap search targets
// 85% of each deadline, keeping slack in reserve for the single-pool plan
// model's optimism about typed slots (see plan.GenerateCappedMargin).
const PlanMargin = planner.DefaultMargin

// ScenarioCell builds the runner cell of one scenario: a cluster configured
// by cfg running flows under spec, with resource-capped plans served by pl
// inside the cell for WOHA schedulers (see PlansFactory). observer may be
// nil, and so may pl when spec is a baseline.
func ScenarioCell(name string, cfg cluster.Config, flows []*workflow.Workflow, spec SchedulerSpec, seed int64, observer func() cluster.Observer, pl *planner.Planner) runner.Cell {
	c := runner.Cell{
		Name:     name,
		Config:   cfg,
		Policy:   func() cluster.Policy { return spec.New(seed, nil) },
		Flows:    flows,
		Observer: observer,
	}
	if spec.IsWOHA() {
		c.Plans = PlansFactory(flows, cfg, spec, pl)
	}
	return c
}

// PlansFactory builds a cell's Plans closure: spec's typed, resource-capped
// plans for flows against cc at pl's margin. Requests go through pl's
// structural cache and singleflight coalescing, so cells sharing pl and
// asking for the same (shape, caps, policy) key — concurrently or not —
// cost one simulation total.
func PlansFactory(flows []*workflow.Workflow, cc cluster.Config, spec SchedulerSpec, pl *planner.Planner) func() ([]*plan.Plan, error) {
	caps := plan.Caps{Maps: cc.MapSlots(), Reduces: cc.ReduceSlots()}
	return func() ([]*plan.Plan, error) {
		return spec.Plans(pl, flows, caps, nil)
	}
}

// sweepCacheSize is how many plans the planner a sweep builds for itself
// keeps: room for every distinct (shape, caps, ordering) key of the Yahoo and
// Fig 11 corpora at every cluster size, so no cell of one sweep plans a key
// another has already planned.
const sweepCacheSize = 4096

// sweepPlanner returns pl or, when pl is nil, one caching planner at
// planner.DefaultMargin for a sweep's cells to share: each distinct key is
// simulated once per sweep, and the plans are the ones an uncached planner
// would serve.
func sweepPlanner(pl *planner.Planner) *planner.Planner {
	if pl == nil {
		return planner.New(planner.Config{CacheSize: sweepCacheSize})
	}
	return pl
}
