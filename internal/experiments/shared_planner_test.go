package experiments

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/planner"
)

// TestFig8SharedPlannerExactlyOnce is the acceptance gate for cross-cell
// plan sharing: running the full Fig 8 sweep through one coalescing planner
// must (a) leave the figures byte-identical to the per-cell direct-generation
// baseline, (b) simulate each distinct structural key exactly once — the
// miss counter equals the number of cached keys, with hits + coalesced
// requests accounting for every other plan served — and (c) stream each
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
	cellsDone := reg.Counter(obs.MetricRunnerCells, "Scenario cells executed by the runner.")
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

	// (b) Exactly-once generation. No evictions and no duplicate fills means
	// every simulation's plan is still cached, so misses == cached keys is
	// precisely "each distinct key simulated once".
	st := pl.Stats()
	misses, hits := st.CacheMisses.Value(), st.CacheHits.Value()
	coalesced, plans := st.Coalesced.Value(), st.Plans.Value()
	if dup := st.DuplicateFills.Value(); dup != 0 {
		t.Errorf("duplicate fills = %d, want 0 (coalescing should make same-key racing impossible)", dup)
	}
	if ev := st.CacheEvictions.Value(); ev != 0 {
		t.Errorf("evictions = %d, want 0 (cache sized for the sweep)", ev)
	}
	if misses != int64(pl.CacheLen()) {
		t.Errorf("misses = %d but cache holds %d keys: some key was simulated more than once", misses, pl.CacheLen())
	}
	if misses+hits+coalesced != plans {
		t.Errorf("misses %d + hits %d + coalesced %d != plans served %d", misses, hits, coalesced, plans)
	}
	// The multi-job Yahoo population happens to be structurally distinct per
	// workflow, and caps + policy separate the sweep's cells, so here every
	// plan served is its own key — the exactly-once property must not cost
	// anything either. (TestFig11RecurrencesSharePlans covers the case where
	// keys do collide.)
	if plans != misses {
		t.Logf("note: %d of %d plans shared (hits %d, coalesced %d)", plans-misses, plans, hits, coalesced)
	}

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
	cfg.Planner = planner.New(planner.Config{CacheSize: 64, Margin: cfg.Margin, Obs: o})
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
	// 9 distinct keys: two thirds of the plans must be shared.
	if want := int64(27); plans != want {
		t.Errorf("plans served = %d, want %d", plans, want)
	}
	if want := int64(9); misses != want {
		t.Errorf("misses = %d, want %d distinct keys", misses, want)
	}
	if hits+coalesced != plans-misses {
		t.Errorf("hits %d + coalesced %d != %d shared plans", hits, coalesced, plans-misses)
	}
	if dup := st.DuplicateFills.Value(); dup != 0 {
		t.Errorf("duplicate fills = %d, want 0", dup)
	}
	if misses != int64(cfg.Planner.CacheLen()) {
		t.Errorf("misses = %d but cache holds %d keys", misses, cfg.Planner.CacheLen())
	}
}

// TestPlansFactoryMarginMismatch pins the guard against pairing a sweep with
// a planner caching at a different margin.
func TestPlansFactoryMarginMismatch(t *testing.T) {
	pl := planner.New(planner.Config{CacheSize: 8, Margin: 0.70})
	cfg := DefaultFig11Config()
	cfg.Planner = pl
	cells, _ := Fig11Cells(cfg)
	for _, c := range cells {
		if c.Plans == nil {
			continue
		}
		if _, err := c.Plans(); err == nil {
			t.Fatalf("cell %q: margin mismatch not rejected", c.Name)
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
			cfg.Planner = planner.New(planner.Config{CacheSize: 1024, Margin: cfg.Margin})
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
