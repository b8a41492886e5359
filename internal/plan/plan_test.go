package plan

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/oracle"
	"repro/internal/priority"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

func singleJob(t *testing.T, maps, reduces int, mt, rt time.Duration, deadline time.Duration) *workflow.Workflow {
	t.Helper()
	return workflow.NewBuilder("single").
		Job("only", maps, reduces, mt, rt).
		MustBuild(simtime.Epoch, simtime.Epoch.Add(deadline))
}

func identityRanks(n int) []int {
	r := make([]int, n)
	for i := range r {
		r[i] = i
	}
	return r
}

func TestGenerateSingleJobWaves(t *testing.T) {
	// 4 maps (10s each) and 2 reduces (30s each) on 2 slots:
	// map waves at 0s and 10s, reduces at 20s, makespan 50s.
	w := singleJob(t, 4, 2, 10*time.Second, 30*time.Second, time.Hour)
	p, err := Generate(w, 2, "ID", identityRanks(1))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if p.Makespan != 50*time.Second {
		t.Errorf("Makespan = %v, want 50s", p.Makespan)
	}
	if !p.Feasible {
		t.Error("Feasible = false, want true")
	}
	want := []Req{
		{TTD: 50 * time.Second, Cum: 2}, // wave 1 maps at t=0
		{TTD: 40 * time.Second, Cum: 4}, // wave 2 maps at t=10
		{TTD: 30 * time.Second, Cum: 6}, // reduces at t=20
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

func TestGenerateSerialAtCapOne(t *testing.T) {
	w := workflow.NewBuilder("w").
		Job("a", 3, 2, 7*time.Second, 11*time.Second).
		Job("b", 2, 1, 5*time.Second, 13*time.Second, "a").
		MustBuild(simtime.Epoch, simtime.FromSeconds(1e6))
	p, err := Generate(w, 1, "ID", identityRanks(2))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if got, want := p.Makespan, w.SerialWork(); got != want {
		t.Errorf("Makespan at cap 1 = %v, want SerialWork %v", got, want)
	}
}

func TestGenerateChainRespectsDependency(t *testing.T) {
	// b cannot start until a's reduces finish, even with ample slots.
	w := workflow.NewBuilder("chain").
		Job("a", 2, 2, 10*time.Second, 20*time.Second).
		Job("b", 2, 2, 10*time.Second, 20*time.Second, "a").
		MustBuild(simtime.Epoch, simtime.FromSeconds(1e6))
	p, err := Generate(w, 100, "ID", identityRanks(2))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if p.Makespan != 60*time.Second {
		t.Errorf("Makespan = %v, want 60s (two serialized 30s jobs)", p.Makespan)
	}
}

func TestGenerateMapOnlyAndReduceOnly(t *testing.T) {
	w := workflow.NewBuilder("mixed").
		Job("maponly", 3, 0, 10*time.Second, 0).
		Job("redonly", 0, 2, 0, 15*time.Second, "maponly").
		MustBuild(simtime.Epoch, simtime.FromSeconds(1e6))
	p, err := Generate(w, 3, "ID", identityRanks(2))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if p.Makespan != 25*time.Second {
		t.Errorf("Makespan = %v, want 25s", p.Makespan)
	}
	if p.TotalTasks != 5 {
		t.Errorf("TotalTasks = %d, want 5", p.TotalTasks)
	}
}

func TestGenerateErrors(t *testing.T) {
	w := singleJob(t, 1, 1, time.Second, time.Second, time.Hour)
	if _, err := Generate(w, 0, "ID", identityRanks(1)); err == nil {
		t.Error("cap 0 accepted")
	}
	if _, err := Generate(w, 2, "ID", identityRanks(5)); err == nil {
		t.Error("wrong rank count accepted")
	}
}

func TestRequiredAt(t *testing.T) {
	p := &Plan{Reqs: []Req{
		{TTD: 50 * time.Second, Cum: 2},
		{TTD: 40 * time.Second, Cum: 4},
		{TTD: 30 * time.Second, Cum: 6},
	}}
	tests := []struct {
		ttd  time.Duration
		want int
	}{
		{60 * time.Second, 0}, // plenty of time: nothing required yet
		{50 * time.Second, 2}, // boundary: first requirement in force
		{45 * time.Second, 2},
		{40 * time.Second, 4},
		{31 * time.Second, 4},
		{30 * time.Second, 6},
		{1 * time.Second, 6},
		{-5 * time.Second, 6}, // past the deadline: everything required
	}
	for _, tc := range tests {
		if got := p.RequiredAt(tc.ttd); got != tc.want {
			t.Errorf("RequiredAt(%v) = %d, want %d", tc.ttd, got, tc.want)
		}
	}
}

func TestRequiredAtEdgeCases(t *testing.T) {
	// A plan with no requirements (e.g. decoded from an empty plan) demands
	// nothing at any ttd, including at and past the deadline.
	empty := &Plan{}
	for _, ttd := range []time.Duration{-time.Hour, 0, time.Nanosecond, time.Hour} {
		if got := empty.RequiredAt(ttd); got != 0 {
			t.Errorf("empty plan: RequiredAt(%v) = %d, want 0", ttd, got)
		}
	}

	single := &Plan{Reqs: []Req{{TTD: 10 * time.Second, Cum: 7}}}
	tests := []struct {
		ttd  time.Duration
		want int
	}{
		{10*time.Second + time.Nanosecond, 0}, // just beyond the first entry
		{10 * time.Second, 7},                 // exactly at the boundary
		{10*time.Second - time.Nanosecond, 7},
		{0, 7}, // at the deadline instant
		{-time.Second, 7},
		{1 << 62, 0}, // ttd beyond any entry: nothing due yet
	}
	for _, tc := range tests {
		if got := single.RequiredAt(tc.ttd); got != tc.want {
			t.Errorf("single entry: RequiredAt(%v) = %d, want %d", tc.ttd, got, tc.want)
		}
	}
}

func TestGenerateCappedFindsMinimalCap(t *testing.T) {
	// 8 maps of 10s + 4 reduces of 10s, deadline 70s.
	// cap 2: 4 map waves (40s) + 2 reduce waves (20s) = 60s: feasible.
	// cap 1: serial = 120s: infeasible. Minimal feasible cap is 2.
	w := singleJob(t, 8, 4, 10*time.Second, 10*time.Second, 70*time.Second)
	p, err := GenerateCapped(w, 64, priority.HLF{})
	if err != nil {
		t.Fatalf("GenerateCapped: %v", err)
	}
	if !p.Feasible {
		t.Fatal("plan infeasible")
	}
	if p.Cap != 2 {
		t.Errorf("Cap = %d, want 2", p.Cap)
	}
	if p.Makespan > 70*time.Second {
		t.Errorf("Makespan = %v exceeds deadline", p.Makespan)
	}
}

func TestGenerateCappedInfeasible(t *testing.T) {
	// Critical path alone (20s) exceeds the 15s deadline: even the whole
	// cluster cannot help.
	w := singleJob(t, 1, 1, 10*time.Second, 10*time.Second, 15*time.Second)
	p, err := GenerateCapped(w, 32, priority.HLF{})
	if err != nil {
		t.Fatalf("GenerateCapped: %v", err)
	}
	if p.Feasible {
		t.Error("Feasible = true for impossible deadline")
	}
	if p.Cap != 32 {
		t.Errorf("Cap = %d, want full cluster 32", p.Cap)
	}
}

func TestCappedPlanDemandsEarlierProgress(t *testing.T) {
	// The Fig 2 insight: a capped plan's requirements kick in earlier
	// (at larger ttd) than the full-cluster plan's, because the capped
	// simulation takes longer and must start work sooner.
	w := workflow.NewBuilder("fig2ish").
		Job("j1", 6, 6, 10*time.Second, 10*time.Second).
		Job("j2", 6, 6, 10*time.Second, 10*time.Second, "j1").
		MustBuild(simtime.Epoch, simtime.Epoch.Add(6*300*time.Second))
	full, err := Generate(w, 12, "HLF", identityRanks(2))
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	capped, err := GenerateCapped(w, 12, priority.HLF{})
	if err != nil {
		t.Fatalf("capped: %v", err)
	}
	if capped.Cap >= full.Cap {
		t.Fatalf("capped.Cap = %d, want < %d", capped.Cap, full.Cap)
	}
	if capped.Reqs[0].TTD <= full.Reqs[0].TTD {
		t.Errorf("capped first requirement at ttd %v, full at %v: capped should demand progress earlier",
			capped.Reqs[0].TTD, full.Reqs[0].TTD)
	}
}

// randomWorkflow is the random DAG builder the oracle tests share.
var randomWorkflow = oracle.RandomWorkflow

// TestPlanInvariantsOnRandomWorkflows checks, across random DAGs, policies,
// and caps, that: Reqs is strictly decreasing in TTD and strictly increasing
// in Cum, the final Cum covers every task, and the makespan is bracketed by
// the critical path and the serial work.
func TestPlanInvariantsOnRandomWorkflows(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		w := randomWorkflow(rng, 2+rng.Intn(25))
		cp, err := w.CriticalPath()
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range priority.All() {
			cap := 1 + rng.Intn(50)
			p, err := GenerateForPolicy(w, cap, pol)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, pol.Name(), err)
			}
			if p.TotalTasks != w.TotalTasks() {
				t.Fatalf("trial %d: TotalTasks = %d, want %d", trial, p.TotalTasks, w.TotalTasks())
			}
			if len(p.Reqs) == 0 {
				t.Fatalf("trial %d: empty Reqs", trial)
			}
			if got := p.Reqs[len(p.Reqs)-1].Cum; got != p.TotalTasks {
				t.Fatalf("trial %d: final Cum = %d, want %d", trial, got, p.TotalTasks)
			}
			for i := 1; i < len(p.Reqs); i++ {
				if p.Reqs[i].TTD >= p.Reqs[i-1].TTD {
					t.Fatalf("trial %d: TTD not strictly decreasing at %d: %+v", trial, i, p.Reqs)
				}
				if p.Reqs[i].Cum <= p.Reqs[i-1].Cum {
					t.Fatalf("trial %d: Cum not strictly increasing at %d: %+v", trial, i, p.Reqs)
				}
			}
			if p.Makespan < cp {
				t.Fatalf("trial %d: makespan %v below critical path %v", trial, p.Makespan, cp)
			}
			if p.Makespan > w.SerialWork() {
				t.Fatalf("trial %d: makespan %v above serial work %v", trial, p.Makespan, w.SerialWork())
			}
		}
	}
}

// TestMoreSlotsNeverLater verifies makespan is non-increasing in the cap for
// chain workflows (where list-scheduling anomalies cannot occur).
func TestMoreSlotsNeverLater(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		b := workflow.NewBuilder("chain")
		prev := ""
		for i := 0; i < 5; i++ {
			name := string(rune('a' + i))
			var after []string
			if prev != "" {
				after = append(after, prev)
			}
			b.Job(name, 1+rng.Intn(20), rng.Intn(6),
				time.Duration(1+rng.Intn(30))*time.Second,
				time.Duration(1+rng.Intn(60))*time.Second, after...)
			prev = name
		}
		w, err := b.Build(0, simtime.FromSeconds(1e9))
		if err != nil {
			t.Fatal(err)
		}
		var last time.Duration
		for cap := 1; cap <= 40; cap++ {
			p, err := Generate(w, cap, "ID", identityRanks(5))
			if err != nil {
				t.Fatal(err)
			}
			if cap > 1 && p.Makespan > last {
				t.Fatalf("trial %d: makespan grew from %v (cap %d) to %v (cap %d)",
					trial, last, cap-1, p.Makespan, cap)
			}
			last = p.Makespan
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := randomWorkflow(rng, 15)
	a, err := GenerateForPolicy(w, 10, priority.LPF{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateForPolicy(w, 10, priority.LPF{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Reqs) != len(b.Reqs) || a.Makespan != b.Makespan {
		t.Fatal("two generations of the same plan differ")
	}
	for i := range a.Reqs {
		if a.Reqs[i] != b.Reqs[i] {
			t.Fatalf("Reqs[%d] differ: %+v vs %+v", i, a.Reqs[i], b.Reqs[i])
		}
	}
}

// TestPooledSimMatchesFresh interleaves pooled generations across workflows
// of very different sizes with generations on freshly allocated simulator
// state: reused (and re-sized) buffers must never leak results between runs.
func TestPooledSimMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	flows := []*workflow.Workflow{
		randomWorkflow(rng, 40),
		randomWorkflow(rng, 3),
		randomWorkflow(rng, 25),
		singleJob(t, 5, 2, 9*time.Second, 21*time.Second, time.Hour),
	}
	for round := 0; round < 3; round++ {
		for _, w := range flows {
			ranks, err := (priority.LPF{}).Rank(w)
			if err != nil {
				t.Fatal(err)
			}
			pooled, err := Generate(w, 17, "LPF", ranks)
			if err != nil {
				t.Fatalf("pooled Generate: %v", err)
			}
			fresh, err := generateWith(new(Kernel), w, 17, "LPF", ranks)
			if err != nil {
				t.Fatalf("fresh Generate: %v", err)
			}
			if !bytes.Equal(pooled.Encode(), fresh.Encode()) {
				t.Fatalf("round %d, %s: pooled plan differs from fresh-state plan", round, w.Name)
			}

			pooledT, err := GenerateTyped(w, Caps{Maps: 11, Reduces: 6}, "LPF", ranks)
			if err != nil {
				t.Fatalf("pooled GenerateTyped: %v", err)
			}
			freshT, err := generateTypedWith(new(Kernel), w, Caps{Maps: 11, Reduces: 6}, "LPF", ranks)
			if err != nil {
				t.Fatalf("fresh GenerateTyped: %v", err)
			}
			if !bytes.Equal(pooledT.Encode(), freshT.Encode()) {
				t.Fatalf("round %d, %s: pooled typed plan differs from fresh-state plan", round, w.Name)
			}
		}
	}
}

func BenchmarkGenerate(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	w := randomWorkflow(rng, 30)
	ranks, err := (priority.LPF{}).Rank(w)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(w, 40, "LPF", ranks); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateFreshState is BenchmarkGenerate without simulator
// pooling: every iteration simulates on newly allocated state, as the seed
// implementation did. The allocs/op gap against BenchmarkGenerate is the
// pooling win.
func BenchmarkGenerateFreshState(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	w := randomWorkflow(rng, 30)
	ranks, err := (priority.LPF{}).Rank(w)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := generateWith(new(Kernel), w, 40, "LPF", ranks); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateCapped(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	w := randomWorkflow(rng, 30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateCapped(w, 400, priority.LPF{}); err != nil {
			b.Fatal(err)
		}
	}
}
