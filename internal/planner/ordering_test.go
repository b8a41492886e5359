package planner

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/priority"
	"repro/internal/simtime"
	"repro/internal/workflow"
	"repro/internal/workload"
)

// orderingCorpus is the planner test corpus (Yahoo seed 1 and Fig 7) with
// the Yahoo corpora of seeds 2–8 added.
func orderingCorpus(t testing.TB) []*workflow.Workflow {
	t.Helper()
	flows := corpus(t)
	for seed := int64(2); seed <= 8; seed++ {
		cfg := workload.DefaultYahooConfig()
		cfg.Seed = seed
		y, err := workload.Yahoo(cfg)
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, y...)
	}
	return flows
}

// TestOrderingSharedAcrossPolicies: one caching planner asked for every
// workflow under HLF, LPF and MPF in turn serves each request the plan the
// seed generator builds under that request's own policy, and runs one cap
// search per distinct (workflow shape, job ordering). A policy that ranks a
// workflow's jobs as an earlier policy did is served that plan's arrays
// without simulating.
func TestOrderingSharedAcrossPolicies(t *testing.T) {
	o := obs.New(obs.NewRegistry(), nil)
	pl := New(Config{CacheSize: 1 << 14, Obs: o})
	type planned struct {
		key      cacheKey
		ordering string
	}
	distinct := map[planned]bool{}
	searches, shared := 0, 0
	for _, w := range orderingCorpus(t) {
		var earlier []*plan.Plan
		for _, pol := range priority.All() {
			got, err := pl.Plan(w, testCluster, pol)
			if err != nil {
				t.Fatalf("%s/%s: Plan: %v", w.Name, pol.Name(), err)
			}
			want, err := plan.GenerateCappedTyped(w, testCluster, pol, DefaultMargin)
			if err != nil {
				t.Fatalf("%s/%s: GenerateCappedTyped: %v", w.Name, pol.Name(), err)
			}
			if !bytes.Equal(got.Encode(), want.Encode()) {
				t.Errorf("%s/%s: served plan differs from GenerateCappedTyped", w.Name, pol.Name())
			}
			if got.SearchIters > 0 {
				searches++
			}
			if i := slices.IndexFunc(earlier, func(p *plan.Plan) bool { return slices.Equal(p.Ranks, want.Ranks) }); i >= 0 {
				shared++
				if got.Simulations != 0 || &got.Reqs[0] != &earlier[i].Reqs[0] {
					t.Errorf("%s/%s ranks the jobs as %s does, but was served %d simulations, own Reqs %v",
						w.Name, pol.Name(), earlier[i].Policy, got.Simulations, &got.Reqs[0] != &earlier[i].Reqs[0])
				}
			}
			earlier = append(earlier, got)
			distinct[planned{keyFor(w, variantTyped, testCluster.Maps, testCluster.Reduces, DefaultMargin), fmt.Sprint(want.Ranks)}] = true
		}
	}
	st := pl.Stats()
	if got := st.CacheMisses.Value(); got != int64(len(distinct)) || searches != len(distinct) {
		t.Errorf("CacheMisses = %d and %d plans searched, want one per distinct (shape, ordering): %d",
			got, searches, len(distinct))
	}
	if shared == 0 {
		t.Error("no policy ranked a workflow's jobs as another did: the corpus exercises nothing")
	}
	t.Logf("%d plans, %d searched, %d served from another policy's plan", st.Plans.Value(), searches, shared)
}

// chain is a three-job chain, which HLF, LPF and MPF all rank in its own
// order.
func chain(name string) *workflow.Workflow {
	return workflow.NewBuilder(name).
		Job("a", 8, 2, 20*time.Second, 30*time.Second).
		Job("b", 6, 2, 10*time.Second, 20*time.Second, "a").
		Job("c", 4, 1, 10*time.Second, 10*time.Second, "b").
		MustBuild(simtime.Epoch, simtime.Epoch.Add(time.Hour))
}

// TestCoalescingAcrossPolicies: a request under LPF that arrives while the
// chain's first generation, under HLF, is held before it has even ranked
// does not start a second one. It waits, finds the orderings equal and is
// served the HLF plan under its own name: one simulation for both.
func TestCoalescingAcrossPolicies(t *testing.T) {
	w := chain("chain")
	want, err := plan.GenerateCappedTyped(w, testCluster, priority.LPF{}, DefaultMargin)
	if err != nil {
		t.Fatal(err)
	}
	pl := New(Config{CacheSize: 8, Obs: obs.New(obs.NewRegistry(), nil)})
	pol := &gated{gate: make(chan struct{})}
	var wg sync.WaitGroup
	var lpf *plan.Plan
	var hlfErr, lpfErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, hlfErr = pl.Plan(w, testCluster, pol)
	}()
	for pol.calls.Load() == 0 {
		runtime.Gosched()
	}
	go func() {
		defer wg.Done()
		lpf, lpfErr = pl.Plan(w, testCluster, priority.LPF{})
	}()
	for i := 0; i < 1000; i++ {
		runtime.Gosched()
	}
	close(pol.gate)
	wg.Wait()
	if hlfErr != nil || lpfErr != nil {
		t.Fatalf("HLF error %v, LPF error %v", hlfErr, lpfErr)
	}
	if !bytes.Equal(lpf.Encode(), want.Encode()) {
		t.Error("the LPF request was served a plan other than GenerateCappedTyped's under LPF")
	}
	st := pl.Stats()
	if got := st.CacheMisses.Value(); got != 1 {
		t.Errorf("CacheMisses = %d, want 1: both policies rank the chain alike", got)
	}
	if got := st.Simulations.Value(); got != int64(want.Simulations) {
		t.Errorf("Simulations = %d, want the one search's %d", got, want.Simulations)
	}
	t.Logf("the LPF request was coalesced %d, a hit %d", st.Coalesced.Value(), st.CacheHits.Value())
}

// TestPlanCacheWaitsOnOrdering drives the table directly: with P's plan of a
// key settled and Q's, under another ordering, held in flight, a request
// under R with Q's ordering waits on Q's flight instead of generating, and is
// served Q's plan under its own name; a later request under R is a plain hit.
func TestPlanCacheWaitsOnOrdering(t *testing.T) {
	st := obs.New(obs.NewRegistry(), nil).NewPlannerStats()
	c := newPlanCache(8, st)
	k := key(1)
	ranksP := func() ([]int, error) { return []int{0, 1}, nil }
	ranksQ := func() ([]int, error) { return []int{1, 0}, nil }
	again := func([]int) (*plan.Plan, error) {
		return nil, errors.New("an ordering in the table was generated again")
	}
	if _, err := c.serve(k, "P", ranksP, func([]int) (*plan.Plan, error) { return fakePlan(1, time.Minute), nil }); err != nil {
		t.Fatal(err)
	}
	started, release := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	var q, r *plan.Plan
	var qErr, rErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		q, qErr = c.serve(k, "Q", ranksQ, func(ranks []int) (*plan.Plan, error) {
			close(started)
			<-release
			return &plan.Plan{Cap: 2, Ranks: ranks}, nil
		})
	}()
	<-started
	go func() {
		defer wg.Done()
		r, rErr = c.serve(k, "R", ranksQ, again)
	}()
	for i := 0; i < 1000; i++ {
		runtime.Gosched()
	}
	if p, err := c.serve(k, "P", ranksP, again); err != nil || p.Cap != 1 {
		t.Errorf("P while Q is in flight: cap %v, error %v, want P's settled plan", p, err)
	}
	close(release)
	wg.Wait()
	if qErr != nil || rErr != nil {
		t.Fatalf("Q error %v, R error %v", qErr, rErr)
	}
	if r.Cap != q.Cap || r.Policy != "R" {
		t.Errorf("R served cap %d under %q, want Q's cap %d under R", r.Cap, r.Policy, q.Cap)
	}
	if p, err := c.serve(k, "R", ranksQ, again); err != nil || p.Cap != q.Cap || p.Policy != "R" {
		t.Errorf("R again: plan %+v, error %v, want Q's plan under R", p, err)
	}
	if got := st.CacheMisses.Value(); got != 2 {
		t.Errorf("CacheMisses = %d, want 2 (P's ordering and Q's)", got)
	}
}

// TestOrderingHitAllocs pins a request served from another policy's plan:
// it ranks the workflow (two slices) and allocates the plan header naming
// its policy and the form that tags it in the table — four in all, with no
// plan, kernel or table entry of its own.
func TestOrderingHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime inflates allocation counts; pin holds in regular builds")
	}
	var flows []*workflow.Workflow
	for _, w := range corpus(t) {
		h, err := priority.HLF{}.Rank(w)
		if err != nil {
			t.Fatal(err)
		}
		l, err := priority.LPF{}.Rank(w)
		if err != nil {
			t.Fatal(err)
		}
		if slices.Equal(h, l) {
			flows = append(flows, w)
		}
	}
	if len(flows) < 10 {
		t.Fatalf("only %d corpus workflows ranked alike by HLF and LPF", len(flows))
	}
	pl := New(Config{CacheSize: 2 * len(flows)})
	for _, w := range flows {
		if _, err := pl.Plan(w, testCluster, priority.HLF{}); err != nil {
			t.Fatal(err)
		}
	}
	// Each call serves the next workflow's first LPF request: AllocsPerRun
	// makes one call more than it averages over.
	i := 0
	got := testing.AllocsPerRun(len(flows)-1, func() {
		if _, err := pl.Plan(flows[i], testCluster, priority.LPF{}); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("%.0f allocations per plan served by ordering over %d workflows", got, len(flows))
	if limit := 4.0; got > limit {
		t.Errorf("%.0f allocations per plan served by ordering, want <= %.0f", got, limit)
	}
}
