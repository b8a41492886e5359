package admission_test

import (
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/priority"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// auditor is the audit surface the pipeline controller exposes beyond the
// Controller interface.
type auditor interface {
	Records() []admission.Record
	Ledger() *admission.Ledger
}

// flow builds a single-job workflow: maps x mt then reduces x rt, released
// at rel with deadline dl (both relative to the epoch).
func flow(name string, rel, dl time.Duration, maps, reduces int, mt, rt time.Duration) *workflow.Workflow {
	return workflow.NewBuilder(name).
		Job("j", maps, reduces, mt, rt).
		MustBuild(simtime.Epoch.Add(rel), simtime.Epoch.Add(dl))
}

// tenantFlow is flow with a tenant stamped on.
func tenantFlow(tenant, name string, rel, dl time.Duration, maps, reduces int, mt, rt time.Duration) *workflow.Workflow {
	w := flow(name, rel, dl, maps, reduces, mt, rt)
	w.Tenant = tenant
	return w
}

func feasibleController(t *testing.T, caps plan.Caps, tenants map[string]admission.Tenant) admission.Controller {
	t.Helper()
	ctrl, err := admission.New(admission.Config{
		Cluster: caps,
		Mode:    admission.ModeFeasible,
		Tenants: tenants,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

// TestAlwaysAdmitAllocs pins the open-door fast path at zero allocations per
// decision — uninstrumented and instrumented both — so the default front
// door stays invisible to the simulator's alloc budgets (enforced again by
// make ci's alloc-pins).
func TestAlwaysAdmitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime inflates allocation counts; pin holds in regular builds")
	}
	w := flow("w", 0, time.Hour, 2, 1, 10*time.Second, 10*time.Second)
	for _, tc := range []struct {
		name string
		ins  *obs.Obs
	}{
		{"uninstrumented", nil},
		{"instrumented", obs.New(obs.NewRegistry(), nil)},
	} {
		ctrl := admission.Always(tc.ins)
		if got := testing.AllocsPerRun(1000, func() {
			ctrl.Decide(w, nil, simtime.Epoch)
		}); got != 0 {
			t.Errorf("%s: %v allocs/decision, want 0", tc.name, got)
		}
	}
}

func TestNewValidation(t *testing.T) {
	caps := plan.Caps{Maps: 4, Reduces: 2}
	for _, tc := range []struct {
		name string
		cfg  admission.Config
	}{
		{"unknown mode", admission.Config{Mode: "sometimes"}},
		{"feasible without caps", admission.Config{Mode: admission.ModeFeasible}},
		{"bad margin", admission.Config{Mode: admission.ModeFeasible, Cluster: caps, Margin: 1.5}},
		{"bad tier ceiling", admission.Config{Mode: admission.ModeFeasible, Cluster: caps, TierCeilings: []float64{0}}},
		{"bad tenant", admission.Config{Mode: admission.ModeFeasible, Cluster: caps,
			Tenants: map[string]admission.Tenant{"t": {Quota: 2}}}},
	} {
		if _, err := admission.New(tc.cfg); err == nil {
			t.Errorf("%s: New accepted %+v", tc.name, tc.cfg)
		}
	}
	// Empty and "always" modes build the open door without caps.
	for _, mode := range []string{"", admission.ModeAlways} {
		ctrl, err := admission.New(admission.Config{Mode: mode})
		if err != nil {
			t.Fatalf("mode %q: %v", mode, err)
		}
		if ctrl.Name() != "always" {
			t.Errorf("mode %q built %q", mode, ctrl.Name())
		}
	}
}

// TestFeasibleAdmitCommitRelease walks the happy path: an admit commits
// capacity in the ledger and Complete releases it.
func TestFeasibleAdmitCommitRelease(t *testing.T) {
	ctrl := feasibleController(t, plan.Caps{Maps: 4, Reduces: 2}, nil)
	w := flow("w1", 0, time.Hour, 8, 2, 100*time.Second, 100*time.Second)
	d := ctrl.Decide(w, nil, simtime.Epoch)
	if d.Verdict != admission.Admit {
		t.Fatalf("Decide = %+v, want admit", d)
	}
	lg := ctrl.(auditor).Ledger()
	if got := len(lg.Committed()); got != 1 {
		t.Fatalf("ledger has %d commitments, want 1", got)
	}
	c := lg.Committed()[0]
	if c.Workflow != "w1" || c.Maps < 1 || c.Reduces < 1 || c.End <= c.Start {
		t.Errorf("commitment %+v malformed", c)
	}
	ctrl.Complete(w, simtime.Epoch.Add(time.Hour))
	if got := len(lg.Committed()); got != 0 {
		t.Errorf("ledger has %d commitments after Complete, want 0", got)
	}
	// Complete for a never-admitted workflow is a no-op.
	ctrl.Complete(flow("ghost", 0, time.Hour, 1, 0, time.Second, 0), simtime.Epoch)
}

// TestFeasibleRejectIsProvablyInfeasible pins the acceptance criterion: for
// every "infeasible" rejection, a sequential cap search over the free
// capacity the controller recorded agrees nothing could meet the deadline,
// and the counter-offer is exactly anchor + the full-capacity makespan.
func TestFeasibleRejectIsProvablyInfeasible(t *testing.T) {
	ctrl := feasibleController(t, plan.Caps{Maps: 4, Reduces: 2}, nil)
	flows := []*workflow.Workflow{
		// Admits: 300s of work against a 1h deadline; commits a minimal slice.
		flow("w1", 0, time.Hour, 8, 2, 100*time.Second, 100*time.Second),
		// Rejects: needs 500s at the remaining free capacity but has 450s.
		flow("w2", 100*time.Second, 550*time.Second, 8, 2, 100*time.Second, 100*time.Second),
	}
	byName := map[string]*workflow.Workflow{}
	for _, w := range flows {
		byName[w.Name] = w
		ctrl.Decide(w, nil, w.Release)
	}
	recs := ctrl.(auditor).Records()
	if len(recs) != 2 {
		t.Fatalf("%d records, want 2", len(recs))
	}
	if v := recs[0].Decision.Verdict; v != admission.Admit {
		t.Fatalf("w1 verdict %v, want admit", v)
	}
	if v, r := recs[1].Decision.Verdict, recs[1].Decision.Reason; v != admission.Reject || r != "infeasible" {
		t.Fatalf("w2 verdict %v (%s), want infeasible reject", v, r)
	}

	pol := priority.LPF{}
	for _, rec := range recs {
		if rec.Decision.Verdict != admission.Reject || rec.Decision.Reason != "infeasible" {
			continue
		}
		w := byName[rec.Workflow]
		ranks, err := pol.Rank(w)
		if err != nil {
			t.Fatal(err)
		}
		// Counter-offer exactness: anchor + makespan at the recorded free caps.
		full, err := plan.GenerateTyped(w, rec.Free, pol.Name(), ranks)
		if err != nil {
			t.Fatal(err)
		}
		if want := rec.Anchor.Add(full.Makespan); rec.Decision.CounterOffer != want {
			t.Errorf("%s: counter-offer %v, want %v", rec.Workflow, rec.Decision.CounterOffer, want)
		}
		// Provable infeasibility: the sequential search over the recorded free
		// capacity finds no cap meeting the deadline budget.
		budget := w.Deadline.Sub(rec.Anchor)
		best, _, err := plan.SequentialSearch(2, rec.Free.Total(), func(mid int, _ *plan.Schedule) (bool, error) {
			p, err := plan.GenerateTyped(w, plan.TypedCapsFor(rec.Free, mid), pol.Name(), ranks)
			if err != nil {
				return false, err
			}
			return p.Makespan <= budget, nil
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if best != 0 {
			t.Errorf("%s: sequential search found feasible cap %d inside budget %v — reject not provable",
				rec.Workflow, best, budget)
		}
	}
}

// TestDeferredRetryAdmits pins the awaiting-capacity path: a workflow
// arriving while a tight-deadline admission holds the whole cluster defers
// to that commitment's end, and the retry ruling (anchored there) admits.
func TestDeferredRetryAdmits(t *testing.T) {
	ctrl := feasibleController(t, plan.Caps{Maps: 4, Reduces: 2}, nil)
	// Tight deadline: the cap search cannot shrink below the full cluster,
	// so w1 commits {4,2} over [0s, 300s).
	w1 := flow("w1", 0, 320*time.Second, 8, 2, 100*time.Second, 100*time.Second)
	if d := ctrl.Decide(w1, nil, w1.Release); d.Verdict != admission.Admit {
		t.Fatalf("w1: %+v", d)
	}
	lg := ctrl.(auditor).Ledger()
	if c := lg.Committed()[0]; c.Maps != 4 || c.Reduces != 2 {
		t.Fatalf("w1 committed %+v, want the full cluster", c)
	}
	// w3 needs 300s at full capacity; with zero free until 300s it cannot
	// start, but deferring to the commitment end still makes its deadline.
	w3 := flow("w3", 50*time.Second, 700*time.Second, 8, 2, 100*time.Second, 100*time.Second)
	d := ctrl.Decide(w3, nil, w3.Release)
	if d.Verdict != admission.Defer || d.Reason != "awaiting-capacity" {
		t.Fatalf("w3 first ruling %+v, want awaiting-capacity defer", d)
	}
	if d.RetryAt != simtime.Epoch.Add(300*time.Second) {
		t.Fatalf("w3 RetryAt %v, want w1's commitment end 300s", d.RetryAt)
	}
	d2 := ctrl.Decide(w3, nil, d.RetryAt)
	if d2.Verdict != admission.Admit {
		t.Fatalf("w3 retry ruling %+v, want admit", d2)
	}
	recs := ctrl.(auditor).Records()
	if got := recs[len(recs)-1].Anchor; got != d.RetryAt {
		t.Errorf("retry ruling anchored at %v, want the deferred RetryAt %v", got, d.RetryAt)
	}
}

// TestTokenBucketRateLimit checks the token-bucket mode: burst admits pass,
// the next submission defers until the bucket refills, and the retry ruling
// (anchored at RetryAt) admits.
func TestTokenBucketRateLimit(t *testing.T) {
	ctrl, err := admission.New(admission.Config{
		Mode:    admission.ModeTokenBucket,
		Tenants: map[string]admission.Tenant{"t": {Rate: 1, Burst: 1}}, // 1/virtual-hour
	})
	if err != nil {
		t.Fatal(err)
	}
	w1 := tenantFlow("t", "w1", 0, time.Hour, 1, 0, time.Second, 0)
	w2 := tenantFlow("t", "w2", time.Minute, 2*time.Hour, 1, 0, time.Second, 0)
	other := flow("other", 0, time.Hour, 1, 0, time.Second, 0) // untenanted: no limit
	if d := ctrl.Decide(w1, nil, w1.Release); d.Verdict != admission.Admit {
		t.Fatalf("w1: %+v", d)
	}
	if d := ctrl.Decide(other, nil, other.Release); d.Verdict != admission.Admit {
		t.Fatalf("untenanted: %+v", d)
	}
	d := ctrl.Decide(w2, nil, w2.Release)
	if d.Verdict != admission.Defer || d.Reason != "rate-limited" {
		t.Fatalf("w2: %+v, want rate-limited defer", d)
	}
	if d.RetryAt <= w2.Release || d.RetryAt > w2.Release.Add(time.Hour) {
		t.Fatalf("w2 RetryAt %v outside (release, release+1h]", d.RetryAt)
	}
	if d2 := ctrl.Decide(w2, nil, d.RetryAt); d2.Verdict != admission.Admit {
		t.Fatalf("w2 retry: %+v, want admit", d2)
	}
}

// TestQuotaShare checks the quota stage: a tenant at its committed-capacity
// share defers to its own earliest commitment end (then admits), and rejects
// outright when the deadline cannot survive the wait.
func TestQuotaShare(t *testing.T) {
	tenants := map[string]admission.Tenant{"q": {Quota: 0.1}} // floor: 2 slots
	ctrl := feasibleController(t, plan.Caps{Maps: 4, Reduces: 2}, tenants)
	w1 := tenantFlow("q", "w1", 0, time.Hour, 8, 2, 100*time.Second, 100*time.Second)
	if d := ctrl.Decide(w1, nil, w1.Release); d.Verdict != admission.Admit {
		t.Fatalf("w1: %+v", d)
	}
	end := ctrl.(auditor).Ledger().Committed()[0].End

	// Deadline before the tenant's commitment frees: reject.
	w3 := tenantFlow("q", "w3", 150*time.Second, end.Sub(simtime.Epoch)-100*time.Second, 1, 0, time.Second, 0)
	if d := ctrl.Decide(w3, nil, w3.Release); d.Verdict != admission.Reject || d.Reason != "quota-exceeded" {
		t.Fatalf("w3: %+v, want quota-exceeded reject", d)
	}

	// Deadline past it: defer to the commitment end, then admit.
	w2 := tenantFlow("q", "w2", 100*time.Second, 5000*time.Second, 1, 0, time.Second, 0)
	d := ctrl.Decide(w2, nil, w2.Release)
	if d.Verdict != admission.Defer || d.Reason != "quota-exceeded" {
		t.Fatalf("w2: %+v, want quota-exceeded defer", d)
	}
	if d.RetryAt != end {
		t.Fatalf("w2 RetryAt %v, want tenant commitment end %v", d.RetryAt, end)
	}
	if d2 := ctrl.Decide(w2, nil, d.RetryAt); d2.Verdict != admission.Admit {
		t.Fatalf("w2 retry: %+v, want admit", d2)
	}
}

// TestTierCeiling checks that a lower-priority tier sees a shrunken cluster:
// a workflow that fits the full cluster exactly is rejected for a tier-1
// tenant whose ceiling leaves too little.
func TestTierCeiling(t *testing.T) {
	caps := plan.Caps{Maps: 4, Reduces: 4}
	shape := func(tenant, name string) *workflow.Workflow {
		w := flow(name, 0, 25*time.Second, 4, 1, 10*time.Second, 10*time.Second)
		w.Tenant = tenant
		return w
	}
	// Untenanted: full cluster, one 10s map wave + one 10s reduce = 20s <= 25s.
	if d := feasibleController(t, caps, nil).Decide(shape("", "w"), nil, simtime.Epoch); d.Verdict != admission.Admit {
		t.Fatalf("untenanted: %+v, want admit", d)
	}
	// Tier 1 (ceiling 0.75 -> 3 map slots): two map waves push makespan to
	// 30s > 25s.
	tenants := map[string]admission.Tenant{"lo": {Tier: 1}}
	d := feasibleController(t, caps, tenants).Decide(shape("lo", "w"), nil, simtime.Epoch)
	if d.Verdict != admission.Reject || d.Reason != "infeasible" {
		t.Fatalf("tier 1: %+v, want infeasible reject", d)
	}
	if d.CounterOffer != simtime.Epoch.Add(30*time.Second) {
		t.Errorf("tier 1 counter-offer %v, want epoch+30s", d.CounterOffer)
	}
}

// TestDeadlinePassedRejects covers the anchor-past-deadline guard: a
// rate-limit deferral can push a workflow's retry anchor beyond its
// deadline, and the retry ruling must then reject rather than admit work
// that already lost.
func TestDeadlinePassedRejects(t *testing.T) {
	// Feasible mode stacks the rate limit in front of the ledger: 1 token
	// per 10 virtual hours, so the second submission's retry lands far past
	// its deadline.
	ctrl := feasibleController(t, plan.Caps{Maps: 4, Reduces: 2},
		map[string]admission.Tenant{"t": {Rate: 0.1, Burst: 1}})
	w1 := tenantFlow("t", "w1", 0, time.Hour, 1, 0, time.Second, 0)
	w2 := tenantFlow("t", "w2", time.Minute, time.Hour, 1, 0, time.Second, 0)
	if d := ctrl.Decide(w1, nil, w1.Release); d.Verdict != admission.Admit {
		t.Fatalf("w1: %+v", d)
	}
	d := ctrl.Decide(w2, nil, w2.Release)
	if d.Verdict != admission.Defer || d.Reason != "rate-limited" {
		t.Fatalf("w2: %+v, want rate-limited defer", d)
	}
	if d.RetryAt <= w2.Deadline {
		t.Fatalf("RetryAt %v not past deadline %v; tighten the rate", d.RetryAt, w2.Deadline)
	}
	if d2 := ctrl.Decide(w2, nil, d.RetryAt); d2.Verdict != admission.Reject || d2.Reason != "deadline-passed" {
		t.Fatalf("w2 retry: %+v, want deadline-passed reject", d2)
	}
}
