package experiments

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/planner"
	"repro/internal/priority"
	"repro/internal/runner"
	"repro/internal/workflow"
)

// TestFig8SharedPlannerExactlyOnce is the acceptance gate for cross-cell
// plan sharing: running the full Fig 8 sweep through one caching planner
// must (a) leave the figures byte-identical to the sweep's own uncached
// planner, (b) simulate each distinct (structural key, job ordering)
// exactly once — the miss counter equals the number of distinct pairs, with
// hits + coalesced requests accounting for every other plan served — and
// (c) stream each
// scheduler's row in presentation order, carrying the same values as the
// final result, the first of them while later cells are still to run.
func TestFig8SharedPlannerExactlyOnce(t *testing.T) {
	direct, err := Fig8(DefaultFig8Config())
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	o := obs.New(reg, nil)
	pl := planner.New(planner.Config{CacheSize: 1024, Margin: PlanMargin, Obs: o})
	cfg := DefaultFig8Config()
	cfg.Planner = pl
	cfg.Obs = o
	cellsDone := o.NewRunnerStats().Cells // the runner's own series: re-registering returns it
	var cellsDoneAtFirstRow int64
	var rows []Fig8Row
	shared, err := Fig8Each(cfg, func(row Fig8Row) error {
		if len(rows) == 0 {
			cellsDoneAtFirstRow = cellsDone.Value()
		}
		rows = append(rows, row)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// (a) Byte-identical figures.
	for _, tab := range []struct {
		name string
		d, s *Table
	}{
		{"Fig 8", direct.MissTable(), shared.MissTable()},
		{"Fig 9", direct.MaxTardTable(), shared.MaxTardTable()},
		{"Fig 10", direct.TotalTardTable(), shared.TotalTardTable()},
	} {
		var dw, sw strings.Builder
		if err := tab.d.Render(&dw); err != nil {
			t.Fatal(err)
		}
		if err := tab.s.Render(&sw); err != nil {
			t.Fatal(err)
		}
		if dw.String() != sw.String() {
			t.Errorf("%s diverged under the shared planner:\n%s\nvs direct:\n%s", tab.name, sw.String(), dw.String())
		}
	}

	// (b) Exactly-once generation: one miss per distinct (key, ordering) the
	// sweep asked for, read back from the plans it was served. With no
	// evictions, asking again is all hits and simulates nothing.
	st := pl.Stats()
	misses, hits := st.CacheMisses.Value(), st.CacheHits.Value()
	coalesced, plans := st.Coalesced.Value(), st.Plans.Value()
	if ev := st.CacheEvictions.Value(); ev != 0 {
		t.Errorf("evictions = %d, want 0 (cache sized for the sweep)", ev)
	}
	if misses+hits+coalesced != plans {
		t.Errorf("misses %d + hits %d + coalesced %d != plans served %d", misses, hits, coalesced, plans)
	}
	orderings, requests := map[planned]bool{}, map[planned]bool{}
	cells, err := Fig8Cells(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Plans == nil {
			continue
		}
		ps, err := c.Plans()
		if err != nil {
			t.Fatal(err)
		}
		for k, w := range c.Flows {
			key := plannedFor(w, c.Config, ps[k].Ranks)
			orderings[key] = true
			key.policy = ps[k].Policy
			requests[key] = true
		}
	}
	if misses != int64(len(orderings)) {
		t.Errorf("misses = %d for %d distinct (key, ordering) pairs: some pair was simulated more than once", misses, len(orderings))
	}
	if again := st.CacheMisses.Value() - misses; again != 0 {
		t.Errorf("asking the sweep's plans again generated %d more", again)
	}
	// The multi-job Yahoo population happens to be structurally distinct per
	// workflow and caps separate the sweep's cells, so a plan is shared only
	// by the WOHA variants whose policies rank a workflow's jobs alike.
	// (TestFig11RecurrencesSharePlans covers the case where keys collide.)
	t.Logf("%d plans: %d simulated, %d served by ordering from another policy's plan (hits %d, coalesced %d)",
		plans, misses, len(requests)-len(orderings), hits, coalesced)

	// (c) Streamed rows: presentation order, values matching the result, and
	// the first row handed over before the sweep's last cell had run.
	if len(rows) != len(shared.Order) {
		t.Fatalf("streamed %d rows, want %d", len(rows), len(shared.Order))
	}
	if cells := int64(len(shared.Order) * len(cfg.Sizes)); cellsDoneAtFirstRow >= cells {
		t.Errorf("first streamed row arrived after the sweep finished: %d/%d cells done", cellsDoneAtFirstRow, cells)
	}
	for i, row := range rows {
		if row.Scheduler != shared.Order[i] {
			t.Errorf("row %d is %q, want %q", i, row.Scheduler, shared.Order[i])
		}
		for k, v := range row.MissRatio {
			if v != shared.MissRatio[row.Scheduler][k] {
				t.Errorf("row %q size %d: streamed miss ratio %v != final %v", row.Scheduler, k, v, shared.MissRatio[row.Scheduler][k])
			}
		}
	}
}

// TestFig11RecurrencesSharePlans exercises the planner where keys genuinely
// collide: with three recurrences each Fig 7 template is requested three
// times per WOHA cell at the same relative deadline, so the shared planner
// must serve each template once per (policy) and answer the rest from cache
// or coalescing — with results byte-identical to direct generation.
func TestFig11RecurrencesSharePlans(t *testing.T) {
	base := DefaultFig11Config()
	base.Recurrences = 3
	direct, err := Fig11(base)
	if err != nil {
		t.Fatal(err)
	}

	o := obs.New(obs.NewRegistry(), nil)
	cfg := base
	cfg.Planner = planner.New(planner.Config{CacheSize: 64, Obs: o})
	cfg.Obs = o
	shared, err := Fig11(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var dw, sw strings.Builder
	if err := direct.WorkspanTable().Render(&dw); err != nil {
		t.Fatal(err)
	}
	if err := shared.WorkspanTable().Render(&sw); err != nil {
		t.Fatal(err)
	}
	if dw.String() != sw.String() {
		t.Errorf("Fig 11 diverged under the shared planner:\n%s\nvs direct:\n%s", sw.String(), dw.String())
	}

	st := cfg.Planner.Stats()
	misses, hits := st.CacheMisses.Value(), st.CacheHits.Value()
	coalesced, plans := st.Coalesced.Value(), st.Plans.Value()
	// 3 WOHA cells × 9 flows = 27 requests over 3 templates × 3 policies =
	// 9 distinct (key, policy) pairs, each cached once; a template is
	// simulated once per distinct job ordering among the policies.
	if want := int64(27); plans != want {
		t.Errorf("plans served = %d, want %d", plans, want)
	}
	orderings := map[planned]bool{}
	for _, w := range base.Flows() {
		for _, pol := range priority.All() {
			ranks, err := pol.Rank(w)
			if err != nil {
				t.Fatal(err)
			}
			orderings[plannedFor(w, base.Cluster(), ranks)] = true
		}
	}
	if misses != int64(len(orderings)) {
		t.Errorf("misses = %d, want %d distinct (key, ordering) pairs", misses, len(orderings))
	}
	if hits+coalesced != plans-misses {
		t.Errorf("hits %d + coalesced %d != %d shared plans", hits, coalesced, plans-misses)
	}
	if want := 9; cfg.Planner.CacheLen() != want {
		t.Errorf("cache holds %d plans, want %d, one per template and policy", cfg.Planner.CacheLen(), want)
	}
}

// planned is what the planner keys a served plan by, policy aside: the
// workflow's shape and relative deadline, the cluster's caps and the job
// ordering (margin is the sweeps' one PlanMargin).
type planned struct {
	shape         workflow.Digest
	deadline      time.Duration
	maps, reduces int
	ordering      string
	policy        string
}

func plannedFor(w *workflow.Workflow, cc cluster.Config, ranks []int) planned {
	return planned{w.Compiled().Digest, w.RelativeDeadline(), cc.MapSlots(), cc.ReduceSlots(), fmt.Sprint(ranks), ""}
}

// TestSweepPlansAtPlannerMargin pins that a sweep's margin is its planner's:
// Fig 11's WOHA-LPF cell, given a planner at 0.70, serves exactly the plans
// the seed generator makes at 0.70.
func TestSweepPlansAtPlannerMargin(t *testing.T) {
	const margin = 0.70
	cfg := DefaultFig11Config()
	cfg.Planner = planner.New(planner.Config{CacheSize: 8, Margin: margin})
	cells, _ := Fig11Cells(cfg)
	i := slices.IndexFunc(cells, func(c runner.Cell) bool { return c.Name == "WOHA-LPF" })
	if i < 0 {
		t.Fatal("no WOHA-LPF cell")
	}
	got, err := cells[i].Plans()
	if err != nil {
		t.Fatal(err)
	}
	cc := cfg.Cluster()
	caps := plan.Caps{Maps: cc.MapSlots(), Reduces: cc.ReduceSlots()}
	flows := cfg.Flows()
	if len(got) != len(flows) {
		t.Fatalf("%d plans for %d flows", len(got), len(flows))
	}
	for k, w := range flows {
		want, err := plan.GenerateCappedTyped(w, caps, priority.LPF{}, margin)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[k].Encode(), want.Encode()) {
			t.Errorf("%s: plan differs from GenerateCappedTyped at margin %v", w.Name, margin)
		}
	}
}

// BenchmarkFig8SweepPlansPerCell and ...Shared time the planning portion of
// the 18-cell Fig 8 sweep: the per-cell baseline regenerates every plan
// directly, the shared variant routes all cells through one coalescing
// planner.
func BenchmarkFig8SweepPlansPerCell(b *testing.B) { benchFig8SweepPlans(b, false) }
func BenchmarkFig8SweepPlansShared(b *testing.B)  { benchFig8SweepPlans(b, true) }

func benchFig8SweepPlans(b *testing.B, shared bool) {
	for i := 0; i < b.N; i++ {
		cfg := DefaultFig8Config()
		if shared {
			cfg.Planner = planner.New(planner.Config{CacheSize: 1024})
		}
		cells, err := Fig8Cells(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if c.Plans == nil {
				continue
			}
			if _, err := c.Plans(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
