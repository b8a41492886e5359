package plan

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/priority"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// TestKernelRebuildsAdjacencyPerBinding began as the stale-adjacency
// regression — a workflow edited in place between two plans was planned
// against one DAG and run against another — and now pins the contract that
// settled it: the job table is frozen at first use, Clone is the edit path.
// Three jobs, c re-pointed from the 10 s a to the 50 s b. Edited in place
// after a plan, Validate refuses the workflow and planning still answers for
// the DAG every other reader sees (50 s); the same edit on a clone plans
// 1 m 0 s while the original keeps planning 50 s — on both simulators, on one
// kernel reused across the edit and on the pooled generators alike.
func TestKernelRebuildsAdjacencyPerBinding(t *testing.T) {
	build := func() *workflow.Workflow {
		return workflow.NewBuilder("edited").
			Job("a", 1, 0, 10*time.Second, 0).
			Job("b", 1, 0, 50*time.Second, 0).
			Job("c", 1, 0, 10*time.Second, 0, "a").
			MustBuild(simtime.Epoch, simtime.Epoch.Add(time.Hour))
	}
	repoint := func(w *workflow.Workflow) { w.Jobs[2].Prereqs = []workflow.JobID{1} }
	ranks := identityRanks(3)
	const before, after = 50 * time.Second, 60 * time.Second

	for _, sim := range []struct {
		name string
		gen  func(k *Kernel, w *workflow.Workflow) (*Plan, error)
	}{
		{"single", func(k *Kernel, w *workflow.Workflow) (*Plan, error) {
			if k == nil {
				return Generate(w, 4, "ID", ranks)
			}
			return generateWith(k, w, 4, "ID", ranks)
		}},
		{"typed", func(k *Kernel, w *workflow.Workflow) (*Plan, error) {
			if k == nil {
				return GenerateTyped(w, Caps{Maps: 4, Reduces: 1}, "ID", ranks)
			}
			return generateTypedWith(k, w, Caps{Maps: 4, Reduces: 1}, "ID", ranks)
		}},
	} {
		for _, state := range []struct {
			name string
			k    *Kernel
		}{{"one kernel", new(Kernel)}, {"pooled", nil}} {
			what := sim.name + "/" + state.name
			makespan := func(w *workflow.Workflow) time.Duration {
				t.Helper()
				p, err := sim.gen(state.k, w)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				return p.Makespan
			}
			w := build()
			if got := makespan(w); got != before {
				t.Fatalf("%s: makespan %v before the edit, want %v", what, got, before)
			}
			if err := w.Validate(); err != nil {
				t.Fatalf("%s: Validate on an unedited workflow in use: %v", what, err)
			}

			edited := w.Clone()
			repoint(edited)
			if err := edited.Validate(); err != nil {
				t.Fatalf("%s: Validate on an edited clone: %v", what, err)
			}
			if got := makespan(edited); got != after {
				t.Errorf("%s: edited clone plans %v, want %v", what, got, after)
			}
			if got := makespan(w); got != before {
				t.Errorf("%s: original plans %v after its clone was edited, want %v", what, got, before)
			}

			repoint(w)
			if err := w.Validate(); !errors.Is(err, workflow.ErrEditedAfterUse) {
				t.Errorf("%s: Validate after an in-place edit = %v, want ErrEditedAfterUse", what, err)
			}
			if got := makespan(w); got != before {
				t.Errorf("%s: in-place edit planned as %v, want %v (the frozen DAG the simulators run)", what, got, before)
			}
		}
	}
}

// TestReleaseDropsWorkflow checks an idle pooled kernel pins neither the
// workflow nor the ranks it last ran.
func TestReleaseDropsWorkflow(t *testing.T) {
	w := singleJob(t, 2, 1, time.Second, time.Second, time.Hour)
	k, err := Bind(w, identityRanks(1))
	if err != nil {
		t.Fatal(err)
	}
	k.Release()
	if k.w != nil || k.ranks != nil {
		t.Errorf("released kernel still references workflow %v / ranks %v", k.w, k.ranks)
	}
}

// TestGenerateTypedEmptyPool pins the zero-slot pool rule: a pool may be
// empty only when the workflow has no task of that type, and the refusal
// names the pool and a job that needs it — before simulating, so a limited
// run can never report "over the limit" in its place.
func TestGenerateTypedEmptyPool(t *testing.T) {
	both := singleJob(t, 3, 2, time.Second, time.Second, time.Hour)
	mapOnly := singleJob(t, 3, 0, time.Second, 0, time.Hour)
	redOnly := singleJob(t, 0, 2, 0, time.Second, time.Hour)
	for _, tc := range []struct {
		name    string
		w       *workflow.Workflow
		caps    Caps
		wantErr []string // substrings; nil means the run must succeed
	}{
		{"no reduce slots, reduces to run", both, Caps{Maps: 4, Reduces: 0}, []string{"no reduce slots", `"only"`, "2 reduce tasks"}},
		{"no map slots, maps to run", both, Caps{Maps: 0, Reduces: 4}, []string{"no map slots", `"only"`, "3 map tasks"}},
		{"no reduce slots, map-only workflow", mapOnly, Caps{Maps: 4, Reduces: 0}, nil},
		{"no map slots, reduce-only workflow", redOnly, Caps{Maps: 0, Reduces: 4}, nil},
		{"no map slots, map-only workflow", mapOnly, Caps{Maps: 0, Reduces: 4}, []string{"no map slots"}},
		{"both empty", both, Caps{}, []string{"bad typed caps"}},
		{"negative pool", both, Caps{Maps: 4, Reduces: -1}, []string{"bad typed caps"}},
	} {
		_, err := GenerateTyped(tc.w, tc.caps, "ID", identityRanks(1))
		k, bindErr := Bind(tc.w, identityRanks(1))
		if bindErr != nil {
			t.Fatal(bindErr)
		}
		// A limit the first batch already passes: still the caps error.
		_, within, limErr := k.MakespanTyped(tc.caps, 0)
		k.Release()
		if tc.wantErr == nil {
			if err != nil {
				t.Errorf("%s: GenerateTyped: %v, want a plan", tc.name, err)
			}
			if limErr != nil || within {
				t.Errorf("%s: limited run: within=%v err=%v, want over and no error", tc.name, within, limErr)
			}
			continue
		}
		for _, e := range []error{err, limErr} {
			if e == nil {
				t.Errorf("%s: accepted", tc.name)
				continue
			}
			for _, sub := range tc.wantErr {
				if !strings.Contains(e.Error(), sub) {
					t.Errorf("%s: error %q does not mention %q", tc.name, e, sub)
				}
			}
			if strings.Contains(e.Error(), "internal error") {
				t.Errorf("%s: caller error reported as internal: %q", tc.name, e)
			}
		}
	}
}

// TestMakespanLowerBounds checks every generated plan against the bounds any
// precedence-respecting schedule obeys (arXiv 1711.09964): the makespan is at
// least the critical path, and at least each pool's work divided by its
// slots. The bounds do not depend on how the plan was simulated.
func TestMakespanLowerBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1711))
	check := func(what string, w *workflow.Workflow, p *Plan, caps Caps, typed bool) {
		t.Helper()
		cp, err := w.CriticalPath()
		if err != nil {
			t.Fatal(err)
		}
		if p.Makespan < cp {
			t.Errorf("%s: makespan %v below the critical path %v", what, p.Makespan, cp)
		}
		var mapWork, redWork time.Duration
		for i := range w.Jobs {
			j := &w.Jobs[i]
			mapWork += time.Duration(j.Maps) * j.MapTime
			redWork += time.Duration(j.Reduces) * j.ReduceTime
		}
		if !typed {
			if p.Makespan*time.Duration(caps.Total()) < mapWork+redWork {
				t.Errorf("%s: makespan %v x %d slots below the work %v", what, p.Makespan, caps.Total(), mapWork+redWork)
			}
			return
		}
		if p.Makespan*time.Duration(caps.Maps) < mapWork {
			t.Errorf("%s: makespan %v x %d map slots below the map work %v", what, p.Makespan, caps.Maps, mapWork)
		}
		if p.Makespan*time.Duration(caps.Reduces) < redWork {
			t.Errorf("%s: makespan %v x %d reduce slots below the reduce work %v", what, p.Makespan, caps.Reduces, redWork)
		}
	}
	for trial := 0; trial < 40; trial++ {
		w := randomWorkflow(rng, 1+rng.Intn(25))
		cluster := Caps{Maps: 1 + rng.Intn(40), Reduces: 1 + rng.Intn(20)}
		for _, pol := range priority.All() {
			ranks, err := pol.Rank(w)
			if err != nil {
				t.Fatal(err)
			}
			p, err := Generate(w, cluster.Total(), pol.Name(), ranks)
			if err != nil {
				t.Fatal(err)
			}
			check("Generate", w, p, cluster, false)
			if p, err = GenerateTyped(w, cluster, pol.Name(), ranks); err != nil {
				t.Fatal(err)
			}
			check("GenerateTyped", w, p, cluster, true)

			// Capped plans, at a deadline somewhere between hopeless and lax.
			w.Deadline = w.Release.Add(time.Duration((0.5 + 3*rng.Float64()) * float64(p.Makespan)))
			if p, err = GenerateCappedMargin(w, cluster.Total(), pol, 0.85); err != nil {
				t.Fatal(err)
			}
			check("GenerateCappedMargin", w, p, Caps{Maps: p.Cap}, false)
			if p, err = GenerateCappedTyped(w, cluster, pol, 0.85); err != nil {
				t.Fatal(err)
			}
			check("GenerateCappedTyped", w, p, TypedCapsFor(cluster, p.Cap), true)
		}
	}
}

// TestKernelProbeAllocs pins the point of the kernel: once bound and warm, a
// probe — limited or not, either simulator — allocates nothing.
func TestKernelProbeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime inflates allocation counts; pin holds in regular builds")
	}
	rng := rand.New(rand.NewSource(8))
	w := randomWorkflow(rng, 30)
	ranks, err := priority.LPF{}.Rank(w)
	if err != nil {
		t.Fatal(err)
	}
	k, err := Bind(w, ranks)
	if err != nil {
		t.Fatal(err)
	}
	defer k.Release()
	caps := Caps{Maps: 30, Reduces: 15}
	full, _, err := k.MakespanTyped(caps, Unlimited)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		probe func() (time.Duration, bool, error)
	}{
		{"typed unlimited", func() (time.Duration, bool, error) { return k.MakespanTyped(caps, Unlimited) }},
		{"typed cut", func() (time.Duration, bool, error) { return k.MakespanTyped(caps, full/2) }},
		{"single unlimited", func() (time.Duration, bool, error) { return k.Makespan(45, Unlimited) }},
		{"single cut", func() (time.Duration, bool, error) { return k.Makespan(45, full/2) }},
	} {
		if _, _, err := tc.probe(); err != nil { // warm this simulator's buffers
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(200, func() { tc.probe() }); got != 0 {
			t.Errorf("%s: %v allocs/probe, want 0", tc.name, got)
		}
	}
}
