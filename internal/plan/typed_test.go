package plan

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/priority"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

func TestGenerateTypedSingleJobWaves(t *testing.T) {
	// 4 maps (10s) on 2 map slots: waves at 0s/10s; 3 reduces (30s) on
	// 1 reduce slot: waves at 20s/50s/80s; makespan 110s.
	w := singleJob(t, 4, 3, 10*time.Second, 30*time.Second, time.Hour)
	p, err := GenerateTyped(w, Caps{Maps: 2, Reduces: 1}, "ID", identityRanks(1))
	if err != nil {
		t.Fatal(err)
	}
	if p.Makespan != 110*time.Second {
		t.Errorf("Makespan = %v, want 110s", p.Makespan)
	}
	want := []Req{
		{TTD: 110 * time.Second, Cum: 2},
		{TTD: 100 * time.Second, Cum: 4},
		{TTD: 90 * time.Second, Cum: 5},
		{TTD: 60 * time.Second, Cum: 6},
		{TTD: 30 * time.Second, Cum: 7},
	}
	if len(p.Reqs) != len(want) {
		t.Fatalf("Reqs = %+v, want %+v", p.Reqs, want)
	}
	for i := range want {
		if p.Reqs[i] != want[i] {
			t.Errorf("Reqs[%d] = %+v, want %+v", i, p.Reqs[i], want[i])
		}
	}
}

func TestGenerateTypedCrossPoolWorkConservation(t *testing.T) {
	// Job a saturates the map pool; the independent reduce-only job b must
	// draw from the reduce pool concurrently — the single-pool Algorithm 1
	// cannot express this overlap.
	w := workflow.NewBuilder("two-pool").
		Job("a", 8, 0, 10*time.Second, 0).
		Job("b", 0, 4, 0, 10*time.Second).
		MustBuild(0, simtime.FromSeconds(1e6))
	p, err := GenerateTyped(w, Caps{Maps: 2, Reduces: 2}, "ID", identityRanks(2))
	if err != nil {
		t.Fatal(err)
	}
	// a: 4 waves x 10s = 40s; b: 2 waves x 10s = 20s, in parallel.
	if p.Makespan != 40*time.Second {
		t.Errorf("Makespan = %v, want 40s (pools overlap)", p.Makespan)
	}
	// At t=0 both pools fire: 2 maps + 2 reduces scheduled.
	if p.Reqs[0].TTD != 40*time.Second || p.Reqs[0].Cum != 4 {
		t.Errorf("Reqs[0] = %+v, want 4 tasks at ttd 40s", p.Reqs[0])
	}
}

func TestGenerateTypedChainDependency(t *testing.T) {
	w := workflow.NewBuilder("chain").
		Job("a", 2, 1, 10*time.Second, 20*time.Second).
		Job("b", 2, 1, 10*time.Second, 20*time.Second, "a").
		MustBuild(0, simtime.FromSeconds(1e6))
	p, err := GenerateTyped(w, Caps{Maps: 4, Reduces: 4}, "ID", identityRanks(2))
	if err != nil {
		t.Fatal(err)
	}
	if p.Makespan != 60*time.Second {
		t.Errorf("Makespan = %v, want 60s", p.Makespan)
	}
}

func TestGenerateTypedErrors(t *testing.T) {
	w := singleJob(t, 1, 1, time.Second, time.Second, time.Hour)
	if _, err := GenerateTyped(w, Caps{Maps: 0, Reduces: 1}, "ID", identityRanks(1)); err == nil {
		t.Error("zero map caps accepted")
	}
	if _, err := GenerateTyped(w, Caps{Maps: 1, Reduces: 1}, "ID", identityRanks(3)); err == nil {
		t.Error("wrong rank count accepted")
	}
	if _, err := GenerateCappedTyped(w, Caps{Maps: 0, Reduces: 0}, priority.HLF{}, 0.9); err == nil {
		t.Error("bad cluster caps accepted")
	}
	if _, err := GenerateCappedTyped(w, Caps{Maps: 2, Reduces: 2}, priority.HLF{}, 1.5); err == nil {
		t.Error("margin > 1 accepted")
	}
	if _, err := GenerateCappedTyped(w, Caps{Maps: 2, Reduces: 2}, priority.HLF{}, 0); err == nil {
		t.Error("margin 0 accepted")
	}
}

func TestGenerateCappedTypedMinimalSlice(t *testing.T) {
	// 8 maps of 10s + 4 reduces of 10s; deadline 130s, margin target
	// 110.5s. Proportional slices of a 10m+10r cluster round the map share
	// down with at least one slot each:
	//   t=3 -> 1m+2r: maps 80s, reduces 2 waves after the barrier = 100s OK
	//   t=2 -> 1m+1r: 80s + 40s = 120s > 110.5s.
	// Minimal total budget is therefore 3.
	w := singleJob(t, 8, 4, 10*time.Second, 10*time.Second, 130*time.Second)
	p, err := GenerateCappedTyped(w, Caps{Maps: 10, Reduces: 10}, priority.HLF{}, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Feasible {
		t.Fatal("plan infeasible")
	}
	if p.Cap != 3 {
		t.Errorf("Cap = %d, want 3", p.Cap)
	}
	if p.Makespan > 110*time.Second+500*time.Millisecond {
		t.Errorf("Makespan %v exceeds the margin target", p.Makespan)
	}
}

func TestGenerateCappedTypedInfeasibleFallsBackToFull(t *testing.T) {
	w := singleJob(t, 1, 1, 10*time.Second, 10*time.Second, 15*time.Second)
	p, err := GenerateCappedTyped(w, Caps{Maps: 8, Reduces: 8}, priority.HLF{}, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	if p.Feasible {
		t.Error("impossible deadline reported feasible")
	}
	if p.Cap != 16 {
		t.Errorf("Cap = %d, want full cluster 16", p.Cap)
	}
}

func TestGenerateCappedTypedMarginFallbackToRealDeadline(t *testing.T) {
	// Critical path 20s; deadline 21s. The 0.5 margin target (10.5s) is
	// unreachable, but the real deadline is fine: the search must retry
	// against it instead of returning the maximal full plan.
	w := singleJob(t, 4, 4, 5*time.Second, 5*time.Second, 21*time.Second)
	p, err := GenerateCappedTyped(w, Caps{Maps: 50, Reduces: 50}, priority.HLF{}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Feasible {
		t.Fatal("feasible deadline reported infeasible")
	}
	if p.Cap >= 100 {
		t.Errorf("Cap = %d; fallback should still shrink below the full cluster", p.Cap)
	}
	if p.Makespan > 21*time.Second {
		t.Errorf("Makespan %v exceeds the deadline", p.Makespan)
	}
}

// TestTypedPlanInvariants mirrors the single-pool invariants across random
// workflows: cumulative monotone requirements covering every task, with the
// makespan bracketed by critical path and serial work.
func TestTypedPlanInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		w := randomWorkflow(rng, 2+rng.Intn(20))
		cp, err := w.CriticalPath()
		if err != nil {
			t.Fatal(err)
		}
		caps := Caps{Maps: 1 + rng.Intn(30), Reduces: 1 + rng.Intn(15)}
		ranks, err := priority.LPF{}.Rank(w)
		if err != nil {
			t.Fatal(err)
		}
		p, err := GenerateTyped(w, caps, "LPF", ranks)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if p.Reqs[len(p.Reqs)-1].Cum != w.TotalTasks() {
			t.Fatalf("trial %d: final Cum %d != %d tasks", trial, p.Reqs[len(p.Reqs)-1].Cum, w.TotalTasks())
		}
		for i := 1; i < len(p.Reqs); i++ {
			if p.Reqs[i].TTD >= p.Reqs[i-1].TTD || p.Reqs[i].Cum <= p.Reqs[i-1].Cum {
				t.Fatalf("trial %d: non-monotone reqs at %d: %+v", trial, i, p.Reqs)
			}
		}
		if p.Makespan < cp || p.Makespan > w.SerialWork() {
			t.Fatalf("trial %d: makespan %v outside [%v, %v]", trial, p.Makespan, cp, w.SerialWork())
		}
		// A typed plan can never beat the single-pool plan with the same
		// total budget: the pools only constrain further. (Holds for the
		// work-conserving scan because every typed schedule is a valid
		// single-pool schedule.)
		sp, err := Generate(w, caps.Total(), "LPF", ranks)
		if err != nil {
			t.Fatal(err)
		}
		if p.Makespan < sp.Makespan {
			t.Fatalf("trial %d: typed makespan %v beat single-pool %v", trial, p.Makespan, sp.Makespan)
		}
	}
}

func TestGenerateCappedTypedDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	w := randomWorkflow(rng, 12)
	w.Deadline = w.Release.Add(w.SerialWork()) // generous
	a, err := GenerateCappedTyped(w, Caps{Maps: 40, Reduces: 20}, priority.MPF{}, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateCappedTyped(w, Caps{Maps: 40, Reduces: 20}, priority.MPF{}, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cap != b.Cap || a.Makespan != b.Makespan || len(a.Reqs) != len(b.Reqs) {
		t.Fatal("typed capped generation not deterministic")
	}
}

func BenchmarkGenerateTyped(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	w := randomWorkflow(rng, 30)
	ranks, err := priority.LPF{}.Rank(w)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateTyped(w, Caps{Maps: 30, Reduces: 15}, "LPF", ranks); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateTypedFreshState simulates on newly allocated state every
// iteration; the gap to BenchmarkGenerateTyped is the pooling win.
func BenchmarkGenerateTypedFreshState(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	w := randomWorkflow(rng, 30)
	ranks, err := priority.LPF{}.Rank(w)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := generateTypedWith(new(Kernel), w, Caps{Maps: 30, Reduces: 15}, "LPF", ranks); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCappedTyped is one cold capped typed plan per iteration — the
// whole-cluster run, the bisection's probes (each stopped at the target) and
// one assemble — on pooled kernel state.
func BenchmarkCappedTyped(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	w := randomWorkflow(rng, 30)
	cluster := Caps{Maps: 300, Reduces: 180}
	ranks, err := priority.LPF{}.Rank(w)
	if err != nil {
		b.Fatal(err)
	}
	full, err := GenerateTyped(w, cluster, "LPF", ranks)
	if err != nil {
		b.Fatal(err)
	}
	// Twice the whole-cluster makespan: the search walks its full depth.
	w.Deadline = w.Release.Add(2 * full.Makespan)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateCappedTyped(w, cluster, priority.LPF{}, 0.85); err != nil {
			b.Fatal(err)
		}
	}
}
