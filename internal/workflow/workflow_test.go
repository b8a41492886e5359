package workflow

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/simtime"
)

// diamond builds the classic 4-job diamond: a -> {b, c} -> d.
func diamond(t *testing.T) *Workflow {
	t.Helper()
	return NewBuilder("diamond").
		Job("a", 4, 2, 10*time.Second, 20*time.Second).
		Job("b", 2, 1, 10*time.Second, 30*time.Second, "a").
		Job("c", 6, 3, 5*time.Second, 15*time.Second, "a").
		Job("d", 1, 1, 10*time.Second, 10*time.Second, "b", "c").
		MustBuild(simtime.Epoch, simtime.FromSeconds(3600))
}

func TestValidateOK(t *testing.T) {
	w := diamond(t)
	if err := w.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	base := func() *Workflow { return diamond(t) }
	tests := []struct {
		name   string
		mutate func(*Workflow)
		want   string
	}{
		{"empty", func(w *Workflow) { w.Jobs = nil }, "no jobs"},
		{"badID", func(w *Workflow) { w.Jobs[1].ID = 5 }, "has ID"},
		{"emptyName", func(w *Workflow) { w.Jobs[0].Name = "" }, "empty name"},
		{"dupName", func(w *Workflow) { w.Jobs[1].Name = "a" }, "duplicate job name"},
		{"negMaps", func(w *Workflow) { w.Jobs[0].Maps = -1 }, "negative task count"},
		{"noTasks", func(w *Workflow) { w.Jobs[0].Maps, w.Jobs[0].Reduces = 0, 0 }, "no tasks"},
		{"zeroMapTime", func(w *Workflow) { w.Jobs[0].MapTime = 0 }, "map time"},
		{"zeroReduceTime", func(w *Workflow) { w.Jobs[0].ReduceTime = 0 }, "reduce time"},
		{"prereqRange", func(w *Workflow) { w.Jobs[1].Prereqs = []JobID{9} }, "out of range"},
		{"selfDep", func(w *Workflow) { w.Jobs[1].Prereqs = []JobID{1} }, "depends on itself"},
		{"dupPrereq", func(w *Workflow) { w.Jobs[3].Prereqs = []JobID{1, 1} }, "twice"},
		{"deadline", func(w *Workflow) { w.Deadline = w.Release }, "not after release"},
		{"cycle", func(w *Workflow) { w.Jobs[0].Prereqs = []JobID{3} }, "cycle"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			w := base()
			tc.mutate(w)
			err := w.Validate()
			if err == nil {
				t.Fatal("Validate returned nil, want error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestTopoOrder(t *testing.T) {
	w := diamond(t)
	order, err := w.TopoOrder()
	if err != nil {
		t.Fatalf("TopoOrder: %v", err)
	}
	pos := make(map[JobID]int)
	for i, id := range order {
		pos[id] = i
	}
	for i := range w.Jobs {
		for _, p := range w.Jobs[i].Prereqs {
			if pos[p] >= pos[JobID(i)] {
				t.Errorf("prereq %d not before job %d in %v", p, i, order)
			}
		}
	}
	// Deterministic: a(0), b(1), c(2), d(3).
	want := []JobID{0, 1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Errorf("order[%d] = %d, want %d", i, order[i], want[i])
		}
	}
}

func TestLevels(t *testing.T) {
	w := diamond(t)
	levels, err := w.Levels()
	if err != nil {
		t.Fatalf("Levels: %v", err)
	}
	want := []int{2, 1, 1, 0}
	for i := range want {
		if levels[i] != want[i] {
			t.Errorf("level[%d] = %d, want %d", i, levels[i], want[i])
		}
	}
}

func TestLongestPathsAndCriticalPath(t *testing.T) {
	w := diamond(t)
	paths, err := w.LongestPaths()
	if err != nil {
		t.Fatalf("LongestPaths: %v", err)
	}
	// Job lengths: a=30s, b=40s, c=20s, d=20s.
	want := []time.Duration{90 * time.Second, 60 * time.Second, 40 * time.Second, 20 * time.Second}
	for i := range want {
		if paths[i] != want[i] {
			t.Errorf("path[%d] = %v, want %v", i, paths[i], want[i])
		}
	}
	cp, err := w.CriticalPath()
	if err != nil {
		t.Fatalf("CriticalPath: %v", err)
	}
	if cp != 90*time.Second {
		t.Errorf("CriticalPath = %v, want 90s", cp)
	}
}

func TestSerialWorkAndTotals(t *testing.T) {
	w := diamond(t)
	// a: 4*10+2*20=80, b: 2*10+1*30=50, c: 6*5+3*15=75, d: 10+10=20 → 225s.
	if got, want := w.SerialWork(), 225*time.Second; got != want {
		t.Errorf("SerialWork = %v, want %v", got, want)
	}
	if got, want := w.TotalTasks(), 20; got != want {
		t.Errorf("TotalTasks = %d, want %d", got, want)
	}
	if got := w.RelativeDeadline(); got != time.Hour {
		t.Errorf("RelativeDeadline = %v, want 1h", got)
	}
}

func TestRootsAndDependents(t *testing.T) {
	w := diamond(t)
	roots := w.Roots()
	if len(roots) != 1 || roots[0] != 0 {
		t.Errorf("Roots = %v, want [0]", roots)
	}
	if d := w.DependentsOf(0); len(d) != 2 || d[0] != 1 || d[1] != 2 {
		t.Errorf("DependentsOf(0) = %v, want [1 2]", d)
	}
	if d := w.DependentsOf(3); len(d) != 0 {
		t.Errorf("DependentsOf(3) = %v, want empty", d)
	}
}

func TestJobLength(t *testing.T) {
	j := Job{Maps: 3, Reduces: 2, MapTime: 10 * time.Second, ReduceTime: 20 * time.Second}
	if got := j.Length(); got != 30*time.Second {
		t.Errorf("Length = %v, want 30s", got)
	}
	mapOnly := Job{Maps: 3, MapTime: 10 * time.Second, ReduceTime: 99 * time.Second}
	if got := mapOnly.Length(); got != 10*time.Second {
		t.Errorf("map-only Length = %v, want 10s", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	w := diamond(t)
	c := w.Clone()
	c.Jobs[1].Prereqs[0] = 3
	c.Deadline = 0
	if w.Jobs[1].Prereqs[0] != 0 {
		t.Error("mutating clone's prereqs affected original")
	}
	if w.Deadline == 0 {
		t.Error("mutating clone's deadline affected original")
	}
}

func TestJobByName(t *testing.T) {
	w := diamond(t)
	if j := w.JobByName("c"); j == nil || j.ID != 2 {
		t.Errorf("JobByName(c) = %+v, want job 2", j)
	}
	if j := w.JobByName("zzz"); j != nil {
		t.Errorf("JobByName(zzz) = %+v, want nil", j)
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder("w").Job("a", 1, 1, time.Second, time.Second).
		Job("a", 1, 1, time.Second, time.Second).
		Build(0, 100); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate job: err = %v", err)
	}
	if _, err := NewBuilder("w").Job("b", 1, 1, time.Second, time.Second, "missing").
		Build(0, 100); err == nil || !strings.Contains(err.Error(), "unknown job") {
		t.Errorf("unknown dep: err = %v", err)
	}
}

// TestRandomDAGsTopoValid generates random DAGs and verifies topological
// order and level invariants hold for each.
func TestRandomDAGsTopoValid(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(30)
		b := NewBuilder("rand")
		names := make([]string, n)
		for i := 0; i < n; i++ {
			names[i] = "j" + string(rune('A'+i%26)) + string(rune('0'+i/26))
			var after []string
			for k := 0; k < i; k++ {
				if rng.Intn(4) == 0 {
					after = append(after, names[k])
				}
			}
			b.Job(names[i], 1+rng.Intn(10), rng.Intn(5), time.Second, time.Second, after...)
		}
		w, err := b.Build(0, simtime.FromSeconds(1e6))
		if err != nil {
			// Jobs with 0 reduces need ReduceTime only if Reduces>0; builder
			// always sets it, so any error is a real bug.
			t.Fatalf("trial %d: Build: %v", trial, err)
		}
		order, err := w.TopoOrder()
		if err != nil {
			t.Fatalf("trial %d: TopoOrder: %v", trial, err)
		}
		pos := make(map[JobID]int, n)
		for i, id := range order {
			pos[id] = i
		}
		levels, err := w.Levels()
		if err != nil {
			t.Fatalf("trial %d: Levels: %v", trial, err)
		}
		for i := range w.Jobs {
			for _, p := range w.Jobs[i].Prereqs {
				if pos[p] >= pos[JobID(i)] {
					t.Fatalf("trial %d: topo order violated", trial)
				}
			}
			for _, d := range w.DependentsOf(JobID(i)) {
				if levels[i] <= levels[d] {
					t.Fatalf("trial %d: level of job %d (%d) not above dependent %d (%d)",
						trial, i, levels[i], d, levels[d])
				}
			}
		}
	}
}
