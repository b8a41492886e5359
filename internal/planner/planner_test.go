package planner

import (
	"bytes"
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
// sequential generators, a planner with several workers, a cold cache fill,
// and a warm cache hit are all identical.
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

// TestProbesCutCounted pins the search accounting: a cold search reports how
// many of its questions were answered "no" and how many simulations it ran
// (at least one, the winner's or the whole cluster's, and never more than
// it asked), the planner's counters add exactly those up, and a request
// served without simulating reports none.
func TestProbesCutCounted(t *testing.T) {
	o := obs.New(obs.NewRegistry(), nil)
	pl := New(Config{CacheSize: 256, Obs: o})
	pol := priority.HLF{}
	var cut, iters, sims int
	for _, w := range corpus(t) {
		cold, err := pl.Plan(w, testCluster, pol)
		if err != nil {
			t.Fatalf("Plan: %v", err)
		}
		if cold.ProbesCut < 0 || cold.ProbesCut > cold.SearchIters-1 {
			t.Errorf("%s: ProbesCut = %d with SearchIters = %d (the whole-cluster run is never cut)", w.Name, cold.ProbesCut, cold.SearchIters)
		}
		if cold.Simulations < 1 || cold.Simulations > cold.SearchIters {
			t.Errorf("%s: Simulations = %d with SearchIters = %d, want 1 to SearchIters", w.Name, cold.Simulations, cold.SearchIters)
		}
		cut += cold.ProbesCut
		iters += cold.SearchIters
		sims += cold.Simulations
		warm, err := pl.Plan(w, testCluster, pol)
		if err != nil {
			t.Fatalf("Plan (warm): %v", err)
		}
		if warm.ProbesCut != 0 || warm.Simulations != 0 {
			t.Errorf("%s: warm plan ProbesCut = %d, Simulations = %d, want 0 (no simulations ran)", w.Name, warm.ProbesCut, warm.Simulations)
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
	if got := st.Simulations.Value(); got != int64(sims) {
		t.Errorf("Simulations counter = %d, want %d (the cold searches' runs)", got, sims)
	}
	t.Logf("%d of %d questions answered no; %d simulated", cut, iters, sims)
}

// TestCacheKeyIsStructural checks both directions of the key: a renamed,
// time-shifted instance of the same DAG shape hits, as does another policy
// that ranks the jobs alike, while any structural difference, or another
// ordering of the same shape, misses.
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
	// Different policy under the same shape, ranking the chain alike: hit,
	// labelled with the new policy.
	p, err := pl.Plan(build("repoliced", simtime.Epoch, 8), testCluster, priority.LPF{})
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if got := pl.Stats().CacheHits.Value(); got != 2 || p.Policy != "LPF" {
		t.Errorf("after policy change: CacheHits = %d, Policy %q, want 2 and LPF", got, p.Policy)
	}
	// A shape on which HLF (the two-job chain first) and LPF (the long
	// single job first) disagree: the second policy misses.
	split := workflow.NewBuilder("split").
		Job("a", 4, 2, 10*time.Second, 10*time.Second).
		Job("b", 4, 2, 10*time.Second, 10*time.Second, "a").
		Job("c", 4, 2, 60*time.Second, 60*time.Second).
		MustBuild(simtime.Epoch, simtime.Epoch.Add(30*time.Minute))
	for _, pol := range []priority.Policy{priority.HLF{}, priority.LPF{}} {
		if _, err := pl.Plan(split, testCluster, pol); err != nil {
			t.Fatalf("Plan: %v", err)
		}
	}
	if got := pl.Stats().CacheMisses.Value(); got != 4 {
		t.Errorf("after another ordering of one shape: CacheMisses = %d, want 4", got)
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

// TestPlannerConcurrentUse hammers one cached planner with requests for
// the corpus under all three policies from many goroutines, so name hits,
// hits by ordering, waits on flights and generations interleave; run with
// -race this checks the table's locking, and in any build every plan must be
// the seed generator's under the request's policy.
func TestPlannerConcurrentUse(t *testing.T) {
	flows := corpus(t)[:24]
	pols := priority.All()
	want := make([][][]byte, len(flows))
	for i, w := range flows {
		for _, pol := range pols {
			p, err := plan.GenerateCappedTyped(w, testCluster, pol, DefaultMargin)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = append(want[i], p.Encode())
		}
	}
	pl := New(Config{Workers: 4, CacheSize: 32, Obs: obs.New(obs.NewRegistry(), nil)})
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 2*len(flows); i++ {
				f, k := (g+i)%len(flows), (g+i/len(flows))%len(pols)
				p, err := pl.Plan(flows[f], testCluster, pols[k])
				if err == nil && !bytes.Equal(p.Encode(), want[f][k]) {
					err = fmt.Errorf("%s/%s: plan differs from GenerateCappedTyped", flows[f].Name, pols[k].Name())
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
