package workflow_test

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/oracle"
	"repro/internal/simtime"
	"repro/internal/workflow"
	"repro/internal/workload"
)

// testCorpus is what the compiled form is checked over: random DAGs, the
// Yahoo-derived population under seeds 1–8, and the Fig 7 topology.
func testCorpus(t testing.TB) []*workflow.Workflow {
	t.Helper()
	var flows []*workflow.Workflow
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 60; i++ {
		flows = append(flows, oracle.RandomWorkflow(rng, 1+rng.Intn(40)))
	}
	for seed := int64(1); seed <= 8; seed++ {
		cfg := workload.DefaultYahooConfig()
		cfg.Seed = seed
		y, err := workload.Yahoo(cfg)
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, y...)
	}
	return append(flows, workload.Fig7("fig7", 1.0, simtime.Epoch, simtime.Epoch.Add(45*time.Minute)))
}

// TestCompiledMatchesOracle holds every field of the compiled form, and every
// reader on Workflow, to the per-call derivations it replaced.
func TestCompiledMatchesOracle(t *testing.T) {
	for _, w := range testCorpus(t) {
		c := w.Compiled()
		if c.Err() != nil {
			t.Fatalf("%s: Err = %v", w.Name, c.Err())
		}
		deps := oracle.Dependents(w)
		var roots []workflow.JobID
		var maps, reds int
		var serial time.Duration
		firstMap, firstRed := -1, -1
		for i := range w.Jobs {
			j := &w.Jobs[i]
			if len(j.Prereqs) == 0 {
				roots = append(roots, j.ID)
			}
			if !slices.Equal(c.DependentsOf(j.ID), deps[i]) || !slices.Equal(w.DependentsOf(j.ID), deps[i]) {
				t.Errorf("%s: DependentsOf(%d) = %v, want %v", w.Name, i, c.DependentsOf(j.ID), deps[i])
			}
			if c.NumDependents[i] != len(deps[i]) {
				t.Errorf("%s: NumDependents[%d] = %d, want %d", w.Name, i, c.NumDependents[i], len(deps[i]))
			}
			maps += j.Maps
			reds += j.Reduces
			if j.Maps > 0 && firstMap < 0 {
				firstMap = i
			}
			if j.Reduces > 0 && firstRed < 0 {
				firstRed = i
			}
			serial += time.Duration(j.Maps)*j.MapTime + time.Duration(j.Reduces)*j.ReduceTime
		}
		if !slices.Equal(c.Roots, roots) || !slices.Equal(w.Roots(), roots) {
			t.Errorf("%s: roots %v, want %v", w.Name, c.Roots, roots)
		}
		if c.MapTasks != maps || c.ReduceTasks != reds || c.TotalTasks != maps+reds || w.TotalTasks() != maps+reds {
			t.Errorf("%s: tasks %d+%d=%d, want %d+%d", w.Name, c.MapTasks, c.ReduceTasks, c.TotalTasks, maps, reds)
		}
		if c.FirstMap != firstMap || c.FirstReduce != firstRed {
			t.Errorf("%s: first map/reduce job %d/%d, want %d/%d", w.Name, c.FirstMap, c.FirstReduce, firstMap, firstRed)
		}
		if c.SerialWork != serial || w.SerialWork() != serial {
			t.Errorf("%s: serial work %v, want %v", w.Name, c.SerialWork, serial)
		}

		topo, err := oracle.TopoOrder(w)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := w.TopoOrder(); !slices.Equal(c.Topo, topo) || !slices.Equal(got, topo) {
			t.Errorf("%s: topological order %v, want %v", w.Name, c.Topo, topo)
		}
		levels, err := oracle.Levels(w)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := w.Levels(); !slices.Equal(c.Levels, levels) || !slices.Equal(got, levels) {
			t.Errorf("%s: levels %v, want %v", w.Name, c.Levels, levels)
		}
		paths, err := oracle.LongestPaths(w)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := w.LongestPaths(); !slices.Equal(c.LongestPaths, paths) || !slices.Equal(got, paths) {
			t.Errorf("%s: longest paths %v, want %v", w.Name, c.LongestPaths, paths)
		}
		if cp, _ := w.CriticalPath(); cp != slices.Max(paths) || c.CriticalPath != cp {
			t.Errorf("%s: critical path %v, want %v", w.Name, cp, slices.Max(paths))
		}
	}
}

// TestTopoOrderLowestReadyFirst covers what builder-made workflows cannot:
// prerequisites with higher IDs than their dependents, where emitting a job
// readies a lower-numbered one and the scan has to step back.
func TestTopoOrderLowestReadyFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		w := oracle.RandomWorkflow(rng, 2+rng.Intn(20)).Clone()
		// Relabel the jobs under a random permutation.
		n := len(w.Jobs)
		perm := rng.Perm(n)
		jobs := make([]workflow.Job, n)
		for old, j := range w.Jobs {
			j.ID = workflow.JobID(perm[old])
			for k, p := range j.Prereqs {
				j.Prereqs[k] = workflow.JobID(perm[p])
			}
			jobs[perm[old]] = j
		}
		w.Jobs = jobs
		if err := w.Validate(); err != nil {
			t.Fatal(err)
		}
		want, err := oracle.TopoOrder(w)
		if err != nil {
			t.Fatal(err)
		}
		if got := w.Compiled().Topo; !slices.Equal(got, want) {
			t.Fatalf("trial %d: topological order %v, want %v", trial, got, want)
		}
		levels, _ := oracle.Levels(w)
		if !slices.Equal(w.Compiled().Levels, levels) {
			t.Fatalf("trial %d: levels %v, want %v", trial, w.Compiled().Levels, levels)
		}
	}
}

// TestDigestIsStructural pins what the digest sees and what it does not.
func TestDigestIsStructural(t *testing.T) {
	base := func() *workflow.Workflow {
		return workflow.NewBuilder("base").
			Job("a", 4, 2, 10*time.Second, 20*time.Second).
			Job("b", 2, 1, 10*time.Second, 30*time.Second).
			Job("c", 6, 3, 5*time.Second, 15*time.Second, "a", "b").
			MustBuild(simtime.Epoch, simtime.Epoch.Add(time.Hour))
	}
	want := base().Compiled().Digest
	for _, tc := range []struct {
		name string
		edit func(w *workflow.Workflow)
		same bool
	}{
		{"renamed, re-released, re-tenanted", func(w *workflow.Workflow) {
			w.Name, w.Tenant = "other", "t"
			w.Release, w.Deadline = w.Release.Add(time.Hour), w.Deadline.Add(3*time.Hour)
			w.Jobs[0].Name, w.Jobs[0].Output = "z", "/out"
		}, true},
		{"prerequisites in another order", func(w *workflow.Workflow) { w.Jobs[2].Prereqs = []workflow.JobID{1, 0} }, true},
		{"one duration off by 1 ns", func(w *workflow.Workflow) { w.Jobs[1].ReduceTime++ }, false},
		{"one task more", func(w *workflow.Workflow) { w.Jobs[0].Maps++ }, false},
		{"one prerequisite dropped", func(w *workflow.Workflow) { w.Jobs[2].Prereqs = []workflow.JobID{0} }, false},
		{"one prerequisite moved", func(w *workflow.Workflow) {
			w.Jobs[1].Prereqs, w.Jobs[2].Prereqs = []workflow.JobID{0}, []workflow.JobID{1}
		}, false},
	} {
		w := base().Clone()
		tc.edit(w)
		if got := w.Compiled().Digest == want; got != tc.same {
			t.Errorf("%s: digest equal = %v, want %v", tc.name, got, tc.same)
		}
	}
}

// TestValidateRefusesEditAfterUse is the frozen-at-first-use contract seen
// from Validate: the job table may change freely until something derives from
// it, not after; Name, Release, Deadline and Tenant stay assignable.
func TestValidateRefusesEditAfterUse(t *testing.T) {
	w := workflow.NewBuilder("w").
		Job("a", 2, 1, time.Second, time.Second).
		Job("b", 2, 1, time.Second, time.Second, "a").
		MustBuild(simtime.Epoch, simtime.Epoch.Add(time.Hour))
	w.Jobs[1].Maps = 5 // built and validated, but not yet used
	if err := w.Validate(); err != nil {
		t.Fatalf("Validate after an edit before first use: %v", err)
	}
	if got := w.TotalTasks(); got != 9 { // first use
		t.Fatalf("TotalTasks = %d, want 9", got)
	}
	w.Name, w.Tenant = "renamed", "tenant"
	w.Release, w.Deadline = w.Release.Add(time.Minute), w.Deadline.Add(time.Hour)
	if err := w.Validate(); err != nil {
		t.Errorf("Validate after reassigning name, tenant, release and deadline: %v", err)
	}
	if err := w.Validated(); err != nil {
		t.Errorf("Validated after reassigning name, tenant, release and deadline: %v", err)
	}
	w.Deadline = w.Release
	if w.Validate() == nil || w.Validated() == nil {
		t.Error("deadline moved onto the release: Validate and Validated must both see it")
	}
	w.Deadline = w.Release.Add(time.Hour)

	w.Jobs[1].Maps = 7
	err := w.Validate()
	if !errors.Is(err, workflow.ErrEditedAfterUse) {
		t.Fatalf("Validate after an in-place edit = %v, want ErrEditedAfterUse", err)
	}
	if got := w.TotalTasks(); got != 9 {
		t.Errorf("TotalTasks = %d after the refused edit, want the compiled 9", got)
	}
	c := w.Clone()
	if err := c.Validate(); err != nil {
		t.Errorf("Validate on a clone carrying the edit: %v", err)
	}
	if got := c.TotalTasks(); got != 11 {
		t.Errorf("clone TotalTasks = %d, want 11", got)
	}
}

// TestCompiledConcurrentFirstUse: many goroutines racing to be a workflow's
// first use all get the one compiled form, with Validate reading the job
// table beside them (run under -race by make race).
func TestCompiledConcurrentFirstUse(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		w := workload.Fig7("fig7", 1.0, simtime.Epoch, simtime.Epoch.Add(45*time.Minute)).Clone()
		const goroutines = 8
		got := make([]*workflow.Compiled, goroutines)
		errs := make([]error, goroutines)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				if g%2 == 0 {
					errs[g] = w.Validate()
				}
				got[g] = w.Compiled()
				w.DependentsOf(0)
			}(g)
		}
		close(start)
		wg.Wait()
		for g := range got {
			if got[g] != got[0] || errs[g] != nil {
				t.Fatalf("goroutine %d: compiled form %p (goroutine 0 has %p), Validate error %v", g, got[g], got[0], errs[g])
			}
		}
	}
}

// FuzzCompile feeds arbitrary job tables — cycles, self-loops, out-of-range
// and duplicate prerequisites, zero and negative counts — through compilation
// and every reader: nothing may panic, Validated must err exactly when
// Validate does, and a table that validates must match the oracle.
func FuzzCompile(f *testing.F) {
	f.Add([]byte{3, 1, 1, 0, 2, 1, 1, 0, 1, 1, 2, 0, 1})
	f.Add([]byte{2, 1, 0, 1, 1, 1, 0, 1, 0})          // two-job cycle
	f.Add([]byte{1, 1, 1, 1, 0})                      // self-loop
	f.Add([]byte{2, 1, 1, 0, 1, 1, 2, 0, 0})          // duplicate prerequisite
	f.Add([]byte{2, 1, 1, 1, 9, 1, 1, 0})             // out of range
	f.Add([]byte{2, 0, 0, 0, 1, 1, 1, 0})             // a job with no tasks
	f.Add([]byte{4, 1, 0, 1, 3, 1, 0, 0, 1, 0, 1, 1}) // high-ID prerequisite
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n := next() % 12
		w := &workflow.Workflow{Name: "fuzz", Deadline: simtime.Epoch.Add(time.Hour)}
		for i := 0; i < n; i++ {
			j := workflow.Job{
				ID: workflow.JobID(i), Name: string(rune('a' + i)),
				Maps: next()%6 - 1, Reduces: next()%6 - 1,
				MapTime: time.Duration(next()%4) * time.Second, ReduceTime: time.Second,
			}
			for k := next() % 4; k > 0; k-- {
				j.Prereqs = append(j.Prereqs, workflow.JobID(next()%16-2))
			}
			w.Jobs = append(w.Jobs, j)
		}
		fresh := w.Validate()
		c := w.Compiled()
		cached := w.Validated()
		if (fresh == nil) != (cached == nil) {
			t.Fatalf("Validate = %v but Validated = %v", fresh, cached)
		}
		if again := w.Validate(); (again == nil) != (fresh == nil) {
			t.Fatalf("Validate = %v before first use, %v after", fresh, again)
		}
		for i := range w.Jobs {
			w.DependentsOf(workflow.JobID(i))
		}
		w.Roots()
		w.TotalTasks()
		w.SerialWork()
		_, topoErr := w.TopoOrder()
		_, levelsErr := w.Levels()
		_, pathsErr := w.LongestPaths()
		_, cpErr := w.CriticalPath()
		if topoErr != c.Err() || levelsErr != c.Err() || pathsErr != c.Err() || cpErr != c.Err() {
			t.Fatalf("graph readers disagree on the error: %v %v %v %v, Err %v", topoErr, levelsErr, pathsErr, cpErr, c.Err())
		}
		if fresh != nil {
			return
		}
		if c.Err() != nil {
			t.Fatalf("valid table, Err = %v", c.Err())
		}
		topo, err := oracle.TopoOrder(w)
		if err != nil {
			t.Fatalf("valid table, oracle: %v", err)
		}
		levels, _ := oracle.Levels(w)
		paths, _ := oracle.LongestPaths(w)
		if !slices.Equal(c.Topo, topo) || !slices.Equal(c.Levels, levels) || !slices.Equal(c.LongestPaths, paths) {
			t.Fatalf("compiled form differs from the oracle's:\n topo %v want %v\n levels %v want %v\n paths %v want %v",
				c.Topo, topo, c.Levels, levels, c.LongestPaths, paths)
		}
	})
}
