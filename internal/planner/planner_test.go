package planner

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/priority"
	"repro/internal/simtime"
	"repro/internal/workflow"
	"repro/internal/workload"
)

// corpus builds the determinism test population: the Yahoo-derived 61
// workflows plus the Fig 7 topology.
func corpus(t testing.TB) []*workflow.Workflow {
	t.Helper()
	flows, err := workload.Yahoo(workload.DefaultYahooConfig())
	if err != nil {
		t.Fatalf("Yahoo: %v", err)
	}
	flows = append(flows, workload.Fig7("fig7", 1.0, simtime.Epoch, simtime.Epoch.Add(45*time.Minute)))
	return flows
}

var testCluster = plan.Caps{Maps: 300, Reduces: 180}

// TestPlannerByteIdenticalToSequential pins the planner's exactness
// contract: for every corpus workflow, the encoded plan bytes from the seed
// sequential generators, the parallel speculative search, a cold cache
// fill, and a warm cache hit are all identical — for both the typed and the
// single-pool generators.
func TestPlannerByteIdenticalToSequential(t *testing.T) {
	flows := corpus(t)
	pol := priority.HLF{}
	seq := New(Config{})
	par := New(Config{Workers: 8})
	cached := New(Config{Workers: 8, CacheSize: 256})

	for _, w := range flows {
		want, err := plan.GenerateCappedTyped(w, testCluster, pol, DefaultMargin)
		if err != nil {
			t.Fatalf("%s: GenerateCappedTyped: %v", w.Name, err)
		}
		wantBytes := want.Encode()
		for _, tc := range []struct {
			name string
			pl   *Planner
		}{{"sequential", seq}, {"parallel", par}, {"cache-cold", cached}, {"cache-warm", cached}} {
			got, err := tc.pl.Plan(w, testCluster, pol)
			if err != nil {
				t.Fatalf("%s/%s: Plan: %v", w.Name, tc.name, err)
			}
			if !bytes.Equal(got.Encode(), wantBytes) {
				t.Errorf("%s/%s: encoded plan differs from sequential", w.Name, tc.name)
			}
		}

		wantSingle, err := plan.GenerateCappedMargin(w, testCluster.Total(), pol, DefaultMargin)
		if err != nil {
			t.Fatalf("%s: GenerateCappedMargin: %v", w.Name, err)
		}
		for _, tc := range []struct {
			name string
			pl   *Planner
		}{{"parallel", par}, {"cache-cold", cached}, {"cache-warm", cached}} {
			got, err := tc.pl.PlanSingle(w, testCluster.Total(), pol)
			if err != nil {
				t.Fatalf("%s/%s: PlanSingle: %v", w.Name, tc.name, err)
			}
			if !bytes.Equal(got.Encode(), wantSingle.Encode()) {
				t.Errorf("%s/%s: encoded single-pool plan differs from sequential", w.Name, tc.name)
			}
		}
	}
}

func TestEstimateMatchesGenerateForPolicy(t *testing.T) {
	flows := corpus(t)
	pol := priority.LPF{}
	pl := New(Config{CacheSize: 128})
	for _, w := range flows {
		want, err := plan.GenerateForPolicy(w, 480, pol)
		if err != nil {
			t.Fatalf("%s: GenerateForPolicy: %v", w.Name, err)
		}
		for pass := 0; pass < 2; pass++ { // second pass is a cache hit
			got, err := pl.Estimate(w, 480, pol)
			if err != nil {
				t.Fatalf("%s: Estimate: %v", w.Name, err)
			}
			if !bytes.Equal(got.Encode(), want.Encode()) {
				t.Errorf("%s pass %d: Estimate differs from GenerateForPolicy", w.Name, pass)
			}
		}
	}
}

func TestCacheHitSkipsSimulation(t *testing.T) {
	o := obs.New(obs.NewRegistry(), nil)
	pl := New(Config{CacheSize: 8, Obs: o})
	w := workload.Fig7("w", 1.0, simtime.Epoch, simtime.Epoch.Add(time.Hour))
	pol := priority.HLF{}

	first, err := pl.Plan(w, testCluster, pol)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if first.SearchIters < 2 {
		t.Errorf("cold plan SearchIters = %d, want >= 2 (full plan + probes)", first.SearchIters)
	}
	second, err := pl.Plan(w, testCluster, pol)
	if err != nil {
		t.Fatalf("Plan (warm): %v", err)
	}
	if second.SearchIters != 0 {
		t.Errorf("warm plan SearchIters = %d, want 0 (no simulations ran)", second.SearchIters)
	}
	st := pl.Stats()
	if got := st.CacheHits.Value(); got != 1 {
		t.Errorf("CacheHits = %d, want 1", got)
	}
	if got := st.CacheMisses.Value(); got != 1 {
		t.Errorf("CacheMisses = %d, want 1", got)
	}
	if got := st.Plans.Value(); got != 2 {
		t.Errorf("Plans = %d, want 2", got)
	}
	if got := st.Probes.Value(); got != int64(first.SearchIters) {
		t.Errorf("Probes = %d, want %d (the cold search's simulations)", got, first.SearchIters)
	}
}

// TestProbesCutCounted pins the cut accounting: a cold search reports how
// many of its simulations stopped at the target, the planner's counter adds
// exactly that up, and a request served without simulating reports none.
func TestProbesCutCounted(t *testing.T) {
	o := obs.New(obs.NewRegistry(), nil)
	pl := New(Config{CacheSize: 256, Obs: o})
	pol := priority.HLF{}
	var cut, iters int
	for _, w := range corpus(t) {
		cold, err := pl.Plan(w, testCluster, pol)
		if err != nil {
			t.Fatalf("Plan: %v", err)
		}
		if cold.ProbesCut < 0 || cold.ProbesCut > cold.SearchIters-1 {
			t.Errorf("%s: ProbesCut = %d with SearchIters = %d (the whole-cluster run is never cut)", w.Name, cold.ProbesCut, cold.SearchIters)
		}
		cut += cold.ProbesCut
		iters += cold.SearchIters
		warm, err := pl.Plan(w, testCluster, pol)
		if err != nil {
			t.Fatalf("Plan (warm): %v", err)
		}
		if warm.ProbesCut != 0 {
			t.Errorf("%s: warm plan ProbesCut = %d, want 0 (no simulations ran)", w.Name, warm.ProbesCut)
		}
	}
	if cut == 0 {
		t.Error("no probe of the whole corpus stopped at its target")
	}
	st := pl.Stats()
	if got := st.ProbesCut.Value(); got != int64(cut) {
		t.Errorf("ProbesCut counter = %d, want %d (the cold searches' cut probes)", got, cut)
	}
	if got := st.Probes.Value(); got != int64(iters) {
		t.Errorf("Probes counter = %d, want %d", got, iters)
	}
	t.Logf("%d of %d simulations stopped at the target", cut, iters)
}

// TestCacheKeyIsStructural checks both directions of the key: a renamed,
// time-shifted instance of the same DAG shape hits, while any structural
// difference misses.
func TestCacheKeyIsStructural(t *testing.T) {
	pl := New(Config{CacheSize: 32, Obs: obs.New(obs.NewRegistry(), nil)})
	pol := priority.HLF{}
	build := func(name string, release simtime.Time, bMaps int) *workflow.Workflow {
		return workflow.NewBuilder(name).
			Job("a", 10, 4, 30*time.Second, 60*time.Second).
			Job("b", bMaps, 2, 20*time.Second, 40*time.Second, "a").
			MustBuild(release, release.Add(30*time.Minute))
	}

	if _, err := pl.Plan(build("orig", simtime.Epoch, 8), testCluster, pol); err != nil {
		t.Fatalf("Plan: %v", err)
	}
	// Same shape, different name and release (same relative deadline): hit.
	if _, err := pl.Plan(build("renamed", simtime.Epoch.Add(5*time.Minute), 8), testCluster, pol); err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if got := pl.Stats().CacheHits.Value(); got != 1 {
		t.Fatalf("after renamed instance: CacheHits = %d, want 1", got)
	}
	// Different task count: miss.
	if _, err := pl.Plan(build("reshaped", simtime.Epoch, 9), testCluster, pol); err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if got := pl.Stats().CacheMisses.Value(); got != 2 {
		t.Errorf("after reshaped instance: CacheMisses = %d, want 2", got)
	}
	// Different policy under the same shape: miss.
	if _, err := pl.Plan(build("repoliced", simtime.Epoch, 8), testCluster, priority.LPF{}); err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if got := pl.Stats().CacheMisses.Value(); got != 3 {
		t.Errorf("after policy change: CacheMisses = %d, want 3", got)
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	o := obs.New(obs.NewRegistry(), nil)
	pl := New(Config{CacheSize: 2, Obs: o})
	pol := priority.HLF{}
	mk := func(maps int) *workflow.Workflow {
		return workflow.NewBuilder(fmt.Sprintf("w%d", maps)).
			Job("a", maps, 2, 30*time.Second, 60*time.Second).
			MustBuild(simtime.Epoch, simtime.Epoch.Add(time.Hour))
	}
	w1, w2, w3 := mk(4), mk(5), mk(6)
	for _, w := range []*workflow.Workflow{w1, w2} {
		if _, err := pl.Plan(w, testCluster, pol); err != nil {
			t.Fatalf("Plan: %v", err)
		}
	}
	// Touch w1 so w2 is the LRU victim, then insert w3.
	if _, err := pl.Plan(w1, testCluster, pol); err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if _, err := pl.Plan(w3, testCluster, pol); err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if got := pl.Stats().CacheEvictions.Value(); got != 1 {
		t.Errorf("CacheEvictions = %d, want 1", got)
	}
	if got := pl.CacheLen(); got != 2 {
		t.Errorf("CacheLen = %d, want 2", got)
	}
	// w1 survived the eviction, w2 did not.
	hits := pl.Stats().CacheHits.Value()
	if _, err := pl.Plan(w1, testCluster, pol); err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if got := pl.Stats().CacheHits.Value(); got != hits+1 {
		t.Errorf("w1 evicted; CacheHits = %d, want %d", got, hits+1)
	}
	misses := pl.Stats().CacheMisses.Value()
	if _, err := pl.Plan(w2, testCluster, pol); err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if got := pl.Stats().CacheMisses.Value(); got != misses+1 {
		t.Errorf("w2 retained; CacheMisses = %d, want %d", got, misses+1)
	}
}

func TestPlanAllMatchesIndividualPlans(t *testing.T) {
	flows := corpus(t)
	pol := priority.MPF{}
	pl := New(Config{Workers: 8, CacheSize: 128})
	batch, err := pl.PlanAll(flows, testCluster, pol)
	if err != nil {
		t.Fatalf("PlanAll: %v", err)
	}
	if len(batch) != len(flows) {
		t.Fatalf("PlanAll returned %d plans for %d flows", len(batch), len(flows))
	}
	for i, w := range flows {
		want, err := plan.GenerateCappedTyped(w, testCluster, pol, DefaultMargin)
		if err != nil {
			t.Fatalf("%s: GenerateCappedTyped: %v", w.Name, err)
		}
		if !bytes.Equal(batch[i].Encode(), want.Encode()) {
			t.Errorf("%s: batch plan differs from sequential", w.Name)
		}
	}
}

func TestPlanAllPropagatesError(t *testing.T) {
	good := workload.Fig7("good", 1.0, simtime.Epoch, simtime.Epoch.Add(time.Hour))
	flows := []*workflow.Workflow{good, good, good, good}
	pl := New(Config{Workers: 4})
	// A zero-reduce cluster cap is rejected by the typed generator.
	if _, err := pl.PlanAll(flows, plan.Caps{Maps: 10, Reduces: 0}, priority.HLF{}); err == nil {
		t.Fatal("PlanAll with bad caps: want error, got nil")
	}
}

// fakeProbe answers a search from a makespan landscape: within when f(cap)
// meets target, as a real probe limited at target would. It records nothing.
func fakeProbe(f func(cap int) time.Duration, target time.Duration) plan.Probe {
	return func(cap int, _ *plan.Schedule) (bool, error) { return f(cap) <= target, nil }
}

// TestParallelSearchEquivalence drives the speculative searcher directly
// against SequentialSearch over makespan landscapes including non-monotone
// ones (list-scheduling anomalies), checking the chosen cap matches exactly
// and that speculation only ever adds probes.
func TestParallelSearchEquivalence(t *testing.T) {
	landscapes := []struct {
		name string
		f    func(cap int) time.Duration
	}{
		{"monotone", func(cap int) time.Duration {
			return time.Duration(1000/cap) * time.Second
		}},
		{"flat-feasible", func(cap int) time.Duration {
			return time.Second
		}},
		{"flat-infeasible", func(cap int) time.Duration {
			return time.Hour
		}},
		// Graham-anomaly-like: makespan jumps around with cap.
		{"non-monotone", func(cap int) time.Duration {
			ms := 1000 / cap
			if cap%3 == 1 {
				ms += 400
			}
			if cap%7 == 2 {
				ms -= 100
			}
			return time.Duration(ms) * time.Second
		}},
	}
	targets := []time.Duration{0, 5 * time.Second, 90 * time.Second, 2 * time.Hour}
	intervals := [][2]int{{1, 1}, {1, 2}, {2, 480}, {1, 1000}}

	for _, ls := range landscapes {
		for _, target := range targets {
			for _, iv := range intervals {
				probe := fakeProbe(ls.f, target)
				wantBest, wantProbes, err := plan.SequentialSearch(iv[0], iv[1], probe, nil)
				if err != nil {
					t.Fatalf("SequentialSearch: %v", err)
				}
				for _, workers := range []int{1, 2, 4, 16} {
					search := newParallelSearch(workers, nil)
					gotBest, gotProbes, err := search(iv[0], iv[1], probe, nil)
					if err != nil {
						t.Fatalf("%s target=%v iv=%v workers=%d: %v", ls.name, target, iv, workers, err)
					}
					if gotBest != wantBest {
						t.Errorf("%s target=%v iv=%v workers=%d: got cap %d, want %d (0 = none)", ls.name, target, iv, workers, gotBest, wantBest)
					}
					if gotProbes < wantProbes {
						t.Errorf("%s target=%v iv=%v workers=%d: %d probes < sequential %d", ls.name, target, iv, workers, gotProbes, wantProbes)
					}
				}
			}
		}
	}
}

// TestParallelSearchErrors verifies the error contract: an error at a cap
// the sequential walk visits aborts the search; an error at a cap only
// speculation touches does not change the result.
func TestParallelSearchErrors(t *testing.T) {
	lo, hi := 1, 100
	target := 40 * time.Second
	answer := fakeProbe(func(cap int) time.Duration { return time.Duration(2500/cap) * time.Second }, target)

	// Record the sequential probe path.
	var path []int
	wantBest, _, err := plan.SequentialSearch(lo, hi, func(cap int, keep *plan.Schedule) (bool, error) {
		path = append(path, cap)
		return answer(cap, keep)
	}, nil)
	if err != nil || wantBest == 0 {
		t.Fatalf("SequentialSearch: best=%v err=%v", wantBest, err)
	}
	onPath := func(cap int) bool {
		for _, c := range path {
			if c == cap {
				return true
			}
		}
		return false
	}

	boom := errors.New("probe exploded")
	// Failing an on-path cap must surface the error.
	search := newParallelSearch(4, nil)
	_, _, err = search(lo, hi, func(cap int, keep *plan.Schedule) (bool, error) {
		if cap == path[len(path)-1] {
			return false, boom
		}
		return answer(cap, keep)
	}, nil)
	if !errors.Is(err, boom) {
		t.Errorf("on-path probe error: got %v, want %v", err, boom)
	}

	// Failing every off-path cap must not disturb the search.
	gotBest, _, err := search(lo, hi, func(cap int, keep *plan.Schedule) (bool, error) {
		if !onPath(cap) {
			return false, boom
		}
		return answer(cap, keep)
	}, nil)
	if err != nil {
		t.Fatalf("off-path probe errors leaked: %v", err)
	}
	if gotBest != wantBest {
		t.Errorf("with failing off-path probes: got cap %d, want %d", gotBest, wantBest)
	}
}

// TestPlannerConcurrentUse hammers one cached planner from many goroutines;
// run with -race this checks the cache and search locking.
func TestPlannerConcurrentUse(t *testing.T) {
	flows := corpus(t)[:24]
	pl := New(Config{Workers: 4, CacheSize: 16, Obs: obs.New(obs.NewRegistry(), nil)})
	pol := priority.HLF{}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < len(flows); i++ {
				w := flows[(g+i)%len(flows)]
				if _, err := pl.Plan(w, testCluster, pol); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatalf("concurrent Plan: %v", err)
		}
	}
}
