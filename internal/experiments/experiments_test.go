package experiments

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"
)

func TestTableRender(t *testing.T) {
	tbl := &Table{
		Title:  "T",
		Note:   "n",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
	}
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"T\n", "n\n", "a", "bb", "333"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestSchedulerSpecs(t *testing.T) {
	specs := AllSchedulers()
	if len(specs) != 6 {
		t.Fatalf("AllSchedulers = %d, want 6", len(specs))
	}
	wantNames := []string{"EDF", "FIFO", "Fair", "WOHA-LPF", "WOHA-HLF", "WOHA-MPF"}
	for i, spec := range specs {
		if spec.Name != wantNames[i] {
			t.Errorf("spec %d = %q, want %q", i, spec.Name, wantNames[i])
		}
		pol := spec.New(1, nil)
		if pol.Name() != spec.Name {
			t.Errorf("policy name %q, spec name %q", pol.Name(), spec.Name)
		}
		wantWOHA := strings.HasPrefix(spec.Name, "WOHA")
		if spec.IsWOHA() != wantWOHA {
			t.Errorf("%s: IsWOHA = %v", spec.Name, spec.IsWOHA())
		}
	}
	if _, err := SchedulerByName("nope"); err == nil {
		t.Error("SchedulerByName(nope) succeeded")
	}
	if s, err := SchedulerByName("WOHA-LPF"); err != nil || s.Name != "WOHA-LPF" {
		t.Errorf("SchedulerByName(WOHA-LPF) = %v, %v", s, err)
	}
}

// TestFig11PaperShape asserts the qualitative result of Fig 11: all three
// WOHA variants meet every deadline; EDF sacrifices W-1 while finishing W-3
// far ahead; FIFO and Fair are tardy on W-3; and workspans sit in the
// paper's 3000-5500s band.
func TestFig11PaperShape(t *testing.T) {
	res, err := Fig11(DefaultFig11Config())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"WOHA-LPF", "WOHA-HLF", "WOHA-MPF"} {
		if got := res.Results[name].DeadlineMisses(); got != 0 {
			t.Errorf("%s missed %d deadlines, want 0", name, got)
		}
	}
	edf := res.Results["EDF"]
	if edf.Workflows[0].Met {
		t.Error("EDF met W-1; the paper's EDF sacrifices the earliest-released workflow")
	}
	if !edf.Workflows[2].Met {
		t.Error("EDF missed W-3, which it should favor")
	}
	// "W-3 finishes far before its deadline" under EDF.
	if slack := edf.Workflows[2].Deadline.Sub(edf.Workflows[2].Finish); slack < 5*time.Minute {
		t.Errorf("EDF W-3 slack = %v, want >= 5m", slack)
	}
	fifo := res.Results["FIFO"]
	if !fifo.Workflows[0].Met {
		t.Error("FIFO missed W-1; the paper's FIFO finishes it well ahead")
	}
	if fifo.Workflows[2].Met {
		t.Error("FIFO met W-3; the paper reports large FIFO tardiness on W-3")
	}
	if res.Results["Fair"].DeadlineMisses() == 0 {
		t.Error("Fair met every deadline; the paper calls it terrible at deadlines")
	}
	for name, r := range res.Results {
		for _, w := range r.Workflows {
			if w.Workspan < 2000*time.Second || w.Workspan > 6000*time.Second {
				t.Errorf("%s %s workspan %v outside the plausible band", name, w.Name, w.Workspan)
			}
		}
	}
}

// TestFig8PaperShape asserts Fig 8-10's qualitative claims on the Yahoo
// workload: FIFO and Fair far worse than the deadline-aware schedulers,
// WOHA-LPF/HLF at or below EDF everywhere (the paper's ~10% satisfaction
// gain), miss ratios non-increasing in cluster size, and WOHA's tardiness
// no worse than FIFO's.
func TestFig8PaperShape(t *testing.T) {
	res, err := Fig8(DefaultFig8Config())
	if err != nil {
		t.Fatal(err)
	}
	for k := range res.Config.Sizes {
		edf := res.MissRatio["EDF"][k]
		fifo := res.MissRatio["FIFO"][k]
		fair := res.MissRatio["Fair"][k]
		lpf := res.MissRatio["WOHA-LPF"][k]
		hlf := res.MissRatio["WOHA-HLF"][k]
		if fifo <= edf {
			t.Errorf("size %d: FIFO (%.3f) not worse than EDF (%.3f)", k, fifo, edf)
		}
		if fair <= lpf {
			t.Errorf("size %d: Fair (%.3f) not worse than WOHA-LPF (%.3f)", k, fair, lpf)
		}
		if lpf > edf || hlf > edf {
			t.Errorf("size %d: WOHA (LPF %.3f, HLF %.3f) worse than EDF (%.3f)", k, lpf, hlf, edf)
		}
	}
	// The headline: WOHA improves the satisfaction ratio vs the best
	// baseline at the middle cluster size.
	if gain := res.MissRatio["EDF"][1] - res.MissRatio["WOHA-LPF"][1]; gain < 0.04 {
		t.Errorf("WOHA-LPF vs EDF gain at 240 slots = %.3f, want >= 0.04", gain)
	}
	for name, series := range res.MissRatio {
		for k := 1; k < len(series); k++ {
			if series[k] > series[k-1]+1e-9 {
				t.Errorf("%s: miss ratio grew with cluster size: %v", name, series)
			}
		}
	}
	for k := range res.Config.Sizes {
		if res.MaxTard["WOHA-LPF"][k] > res.MaxTard["FIFO"][k] {
			t.Errorf("size %d: WOHA-LPF max tardiness %v above FIFO %v",
				k, res.MaxTard["WOHA-LPF"][k], res.MaxTard["FIFO"][k])
		}
		if res.TotalTard["WOHA-LPF"][k] > res.TotalTard["FIFO"][k] {
			t.Errorf("size %d: WOHA-LPF total tardiness above FIFO", k)
		}
	}
}

// TestFig12Utilization sanity-checks the Fig 12 numbers: every scheduler
// lands in a plausible band and the table renders.
func TestFig12Utilization(t *testing.T) {
	cfg := DefaultFig11Config()
	cfg.Recurrences = 3
	res, err := Fig11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range res.Results {
		u := r.Utilization()
		if u < 0.25 || u > 1.0 {
			t.Errorf("%s utilization %.3f outside (0.25, 1.0]", name, u)
		}
	}
	var sb strings.Builder
	if err := res.UtilizationTable().Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "3 recurrence") {
		t.Errorf("utilization table missing recurrence note:\n%s", sb.String())
	}
}

// TestFig13aShape asserts the scalability ranking at a size where the naive
// queue has clearly collapsed: DSL and BST sustain orders of magnitude more
// AssignTask calls.
func TestFig13aShape(t *testing.T) {
	cfg := Fig13aConfig{
		QueueLengths: []int{100, 10000},
		OpsBudget:    20000,
		MaxDuration:  300 * time.Millisecond,
		Seed:         1,
	}
	res := Fig13a(cfg)
	dsl := res.Throughput["DSL"][1]
	bst := res.Throughput["BST"][1]
	naive := res.Throughput["Naive"][1]
	if dsl < 20*naive {
		t.Errorf("DSL (%.0f/s) not >> naive (%.0f/s) at 10k workflows", dsl, naive)
	}
	if bst < 20*naive {
		t.Errorf("BST (%.0f/s) not >> naive (%.0f/s) at 10k workflows", bst, naive)
	}
	if dsl < bst/2 {
		t.Errorf("DSL (%.0f/s) far below BST (%.0f/s); head-pop fast path lost", dsl, bst)
	}
	var sb strings.Builder
	if err := res.Table().Render(&sb); err != nil {
		t.Fatal(err)
	}
}

// TestFig13bPlanSizes asserts the paper's storage claim: plans stay within a
// few KB even for 1400+-task workflows.
func TestFig13bPlanSizes(t *testing.T) {
	res, err := Fig13b(DefaultFig13bConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.MaxBytes(); got > 8*1024 {
		t.Errorf("max plan size = %d bytes, want <= 8 KiB (paper: ~7 KB)", got)
	}
	found := false
	for _, pts := range res.Points {
		for _, pt := range pts {
			if pt.Tasks >= 1000 {
				found = true
			}
		}
	}
	if !found {
		t.Error("no workflow reached 1000 tasks; experiment under-covers the paper's range")
	}
	var sb strings.Builder
	if err := res.Table().Render(&sb); err != nil {
		t.Fatal(err)
	}
}

// TestFig3Intervals checks the property Fig 3 exists to establish: progress
// requirements change rarely relative to slot free-ups (milliseconds), so
// Algorithm 2's lazy resettling amortizes.
func TestFig3Intervals(t *testing.T) {
	res, err := Fig3(DefaultFig3Config())
	if err != nil {
		t.Fatal(err)
	}
	h := res.Histogram
	if h.Total() < 1000 {
		t.Fatalf("only %d intervals measured", h.Total())
	}
	// Virtually all intervals exceed 100ms, and a large fraction exceed
	// 10s — both orders of magnitude above per-ms slot free-ups.
	if got := h.FractionAbove(2); got < 0.97 {
		t.Errorf("fraction of intervals > 100ms = %.3f, want >= 0.97", got)
	}
	if got := h.FractionAbove(4); got < 0.30 {
		t.Errorf("fraction of intervals > 10s = %.3f, want >= 0.30", got)
	}
}

// TestFig56Stats spot-checks the trace-statistics tables against the claims
// the paper reads off the Yahoo data.
func TestFig56Stats(t *testing.T) {
	res := Fig56(DefaultFig56Config())
	if got := res.MapTime.P(100) - res.MapTime.P(10); got < 0.55 {
		t.Errorf("maps in [10s,100s] = %.3f, want >= 0.55", got)
	}
	if got := 1 - res.ReduceTime.P(100); got < 0.45 {
		t.Errorf("reduces > 100s = %.3f, want >= 0.45", got)
	}
	if got := 1 - res.MapCount.P(100); got < 0.2 {
		t.Errorf("jobs > 100 maps = %.3f, want >= 0.2", got)
	}
	if got := res.ReduceCount.P(9.5); got < 0.55 {
		t.Errorf("jobs < 10 reduces = %.3f, want >= 0.55", got)
	}
	for _, tbl := range []*Table{res.Fig5Table(), res.Fig6Table()} {
		var sb strings.Builder
		if err := tbl.Render(&sb); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFig2CappedPlansWin asserts the motivating example's outcome.
func TestFig2CappedPlansWin(t *testing.T) {
	res, err := Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if res.UncappedMisses == 0 {
		t.Error("uncapped plans met every deadline; Fig 2 predicts a miss")
	}
	if res.CappedMisses != 0 {
		t.Errorf("capped plans missed %d deadlines, want 0", res.CappedMisses)
	}
	var sb strings.Builder
	if err := res.Table().Render(&sb); err != nil {
		t.Fatal(err)
	}
}

type nopWriteCloser struct{ io.Writer }

func (nopWriteCloser) Close() error { return nil }

// TestTimelinesEmitAllPanels checks the Fig 14-19 CSV emission: 6 schedulers
// x 2 slot types, each with a header and data.
func TestTimelinesEmitAllPanels(t *testing.T) {
	cfg := DefaultFig11Config()
	res, err := Fig11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]*bytes.Buffer{}
	err = res.WriteTimelines(func(stem string) (io.WriteCloser, error) {
		buf := &bytes.Buffer{}
		got[stem] = buf
		return nopWriteCloser{buf}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 12 {
		t.Fatalf("emitted %d files, want 12", len(got))
	}
	for stem, buf := range got {
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if len(lines) < 10 {
			t.Errorf("%s: only %d lines", stem, len(lines))
		}
		if !strings.HasPrefix(lines[0], "seconds,") {
			t.Errorf("%s: bad header %q", stem, lines[0])
		}
	}
	for _, want := range []string{"fig14_FIFO_map", "fig15_EDF_reduce", "fig19_WOHA-MPF_map"} {
		if _, ok := got[want]; !ok {
			t.Errorf("missing panel %s", want)
		}
	}
}

// TestAblationsFig11 smoke-tests the simulator-knob ablations and their
// table, and checks the load-bearing result: the baseline meets every
// deadline.
func TestAblationsFig11(t *testing.T) {
	results, err := AblationsFig11()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AblationResult{}
	for _, r := range results {
		byName[r.Variant] = r
	}
	if got := byName["baseline (margin 0.85)"]; got.Misses != 0 {
		t.Errorf("baseline missed %d deadlines", got.Misses)
	}
	var sb strings.Builder
	if err := AblationTable("t", results).Render(&sb); err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !strings.Contains(sb.String(), r.Variant) {
			t.Errorf("table missing row %q", r.Variant)
		}
	}
}
