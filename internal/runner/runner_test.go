package runner_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/plan"
	"repro/internal/runner"
	"repro/internal/scheduler"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// smallCell builds a quick FIFO scenario; tasks scale with n so cells in one
// batch finish at different wall-clock times (exercising reordering).
func smallCell(name string, n int, seed int64) runner.Cell {
	w := workflow.NewBuilder(name).
		Job("j", 2+n, 1, 10*time.Second, 20*time.Second).
		MustBuild(0, simtime.FromSeconds(1e6))
	return runner.Cell{
		Name:   name,
		Config: cluster.Config{Nodes: 2, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1, Noise: 0.3, Seed: seed},
		Policy: func() cluster.Policy { return scheduler.NewFIFO() },
		Flows:  []*workflow.Workflow{w},
	}
}

func TestRunAllOrderAndIdentity(t *testing.T) {
	cells := make([]runner.Cell, 12)
	for i := range cells {
		cells[i] = smallCell(fmt.Sprintf("c%d", i), i%5, int64(i))
	}
	serial, err := runner.New(runner.Config{Workers: 1}).RunAll(cells)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	for _, workers := range []int{2, 4, 16} {
		par, err := runner.New(runner.Config{Workers: workers}).RunAll(cells)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range cells {
			if got, want := mustJSON(t, par[i]), mustJSON(t, serial[i]); got != want {
				t.Fatalf("workers=%d: cell %d diverged from serial:\n%s\nvs\n%s", workers, i, got, want)
			}
		}
	}
}

func TestRunEachDeliversInSubmissionOrder(t *testing.T) {
	cells := make([]runner.Cell, 10)
	for i := range cells {
		// Reverse the sizes so later cells tend to finish first.
		cells[i] = smallCell(fmt.Sprintf("c%d", i), len(cells)-i, int64(i))
	}
	var order []int
	err := runner.New(runner.Config{Workers: 4}).RunEach(cells, func(i int, res *cluster.Result) error {
		if res == nil {
			t.Fatalf("cell %d: nil result", i)
		}
		order = append(order, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != len(cells) {
		t.Fatalf("delivered %d of %d cells", len(order), len(cells))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("delivery order %v, want ascending", order)
		}
	}
}

func TestFirstErrorByIndexWins(t *testing.T) {
	boom := func(i int) runner.Cell {
		c := smallCell(fmt.Sprintf("bad%d", i), 0, 0)
		c.Plans = func() ([]*plan.Plan, error) { return nil, fmt.Errorf("boom %d", i) }
		return c
	}
	cells := []runner.Cell{smallCell("ok0", 1, 0), boom(1), smallCell("ok2", 1, 2), boom(3)}
	for _, workers := range []int{1, 4} {
		results, err := runner.New(runner.Config{Workers: workers}).RunAll(cells)
		if err == nil || err.Error() != `runner: cell "bad1": boom 1` {
			t.Fatalf("workers=%d: err = %v, want the lowest-indexed failure", workers, err)
		}
		if results[0] == nil {
			t.Errorf("workers=%d: cell 0 succeeded before the failure but was not delivered", workers)
		}
		// Cells are independent: a failure nils only its own entry, and
		// every later successful cell is still delivered.
		if results[1] != nil || results[3] != nil {
			t.Errorf("workers=%d: failed cells delivered non-nil results: %v", workers, results)
		}
		if results[2] == nil {
			t.Errorf("workers=%d: successful cell 2 dropped after cell 1's failure", workers)
		}
	}
}

// TestDeliveryContinuesPastFailure is the regression pin for RunEach's
// past-failure semantics: every successful cell is delivered to fn, in
// order, even when an earlier cell failed; the returned error is still the
// lowest-indexed failure.
func TestDeliveryContinuesPastFailure(t *testing.T) {
	boom := func(i int) runner.Cell {
		c := smallCell(fmt.Sprintf("bad%d", i), 0, 0)
		c.Plans = func() ([]*plan.Plan, error) { return nil, fmt.Errorf("boom %d", i) }
		return c
	}
	cells := []runner.Cell{
		boom(0), smallCell("ok1", 1, 1), boom(2),
		smallCell("ok3", 2, 3), smallCell("ok4", 1, 4),
	}
	for _, workers := range []int{1, 3} {
		var delivered []int
		err := runner.New(runner.Config{Workers: workers}).RunEach(cells, func(i int, res *cluster.Result) error {
			if res == nil {
				t.Fatalf("workers=%d: cell %d delivered nil", workers, i)
			}
			delivered = append(delivered, i)
			return nil
		})
		if err == nil || err.Error() != `runner: cell "bad0": boom 0` {
			t.Fatalf("workers=%d: err = %v, want the lowest-indexed failure", workers, err)
		}
		if want := []int{1, 3, 4}; !slicesEqual(delivered, want) {
			t.Errorf("workers=%d: delivered %v, want %v", workers, delivered, want)
		}
	}
}

func slicesEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRunEachStreamsBeforeBatchCompletes pins the streaming contract figure
// rendering relies on: cell i's result reaches fn while later cells are
// still executing. Cell 3 blocks until fn has seen cell 0; with 2 workers
// the test only completes if delivery is concurrent with execution.
func TestRunEachStreamsBeforeBatchCompletes(t *testing.T) {
	cellZeroDelivered := make(chan struct{})
	cells := []runner.Cell{
		smallCell("c0", 1, 0), smallCell("c1", 1, 1), smallCell("c2", 1, 2),
		smallCell("c3", 1, 3),
	}
	cells[3].Plans = func() ([]*plan.Plan, error) {
		select {
		case <-cellZeroDelivered:
			return nil, nil
		case <-time.After(30 * time.Second):
			return nil, errors.New("cell 0 was not delivered while cell 3 was still running")
		}
	}
	var order []int
	err := runner.New(runner.Config{Workers: 2}).RunEach(cells, func(i int, res *cluster.Result) error {
		if i == 0 {
			close(cellZeroDelivered)
		}
		order = append(order, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 3}; !slicesEqual(order, want) {
		t.Errorf("delivery order %v, want %v", order, want)
	}
}

func TestRunEachCallbackErrorStopsDelivery(t *testing.T) {
	cells := make([]runner.Cell, 6)
	for i := range cells {
		cells[i] = smallCell(fmt.Sprintf("c%d", i), 1, int64(i))
	}
	sentinel := errors.New("stop")
	var delivered int
	err := runner.New(runner.Config{Workers: 3}).RunEach(cells, func(i int, res *cluster.Result) error {
		delivered++
		if i == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if delivered != 3 {
		t.Fatalf("delivered %d cells, want 3 (0, 1, 2)", delivered)
	}
}

// TestParitySerialParallel is the acceptance gate for the parallel runner:
// over the real experiment corpora (the Fig 8 Yahoo sweep and the Fig 11
// scheduler sweep), the parallel path must produce byte-identical results to
// the serial path.
func TestParitySerialParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment corpus")
	}
	fig8, err := experiments.Fig8Cells(experiments.DefaultFig8Config())
	if err != nil {
		t.Fatal(err)
	}
	fig11, _ := experiments.Fig11Cells(experiments.DefaultFig11Config())
	corpus := append(fig8, fig11...)

	serial, err := runner.New(runner.Config{Workers: 1}).RunAll(corpus)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	parallel, err := runner.New(runner.Config{Workers: 8}).RunAll(corpus)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	for i := range corpus {
		got, want := mustJSON(t, parallel[i]), mustJSON(t, serial[i])
		if got != want {
			t.Errorf("cell %q: parallel result differs from serial", corpus[i].Name)
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

// BenchmarkFig8CorpusSerial and ...Parallel8 time the Fig 8 sweep through
// the runner; the benchmark's fig8_sweep workload measures the same sweep
// with repeats (cluster.ns_per_event, runner.parallel_speedup).
func BenchmarkFig8CorpusSerial(b *testing.B)    { benchCorpus(b, 1) }
func BenchmarkFig8CorpusParallel8(b *testing.B) { benchCorpus(b, 8) }

func benchCorpus(b *testing.B, workers int) {
	cells, err := experiments.Fig8Cells(experiments.DefaultFig8Config())
	if err != nil {
		b.Fatal(err)
	}
	// Memoize the plans so iterations time the simulator, not Algorithm 1.
	for i := range cells {
		if cells[i].Plans == nil {
			continue
		}
		plans, err := cells[i].Plans()
		if err != nil {
			b.Fatal(err)
		}
		cells[i].Plans = func() ([]*plan.Plan, error) { return plans, nil }
	}
	run := runner.New(runner.Config{Workers: workers})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run.RunAll(cells); err != nil {
			b.Fatal(err)
		}
	}
}
