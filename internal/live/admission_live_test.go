package live_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// decisionAudit is the introspection side of the staged pipeline (see
// admission.pipeline); the differential compares full decision records, not
// just the per-workflow outcome fields.
type decisionAudit interface {
	Records() []admission.Record
}

// feasibleDoor builds a fresh feasibility controller for a cluster of 8 map
// and 4 reduce slots, with the given tenants. Controllers are stateful, so
// each side of the differential gets its own.
func feasibleDoor(tenants map[string]admission.Tenant) func(testing.TB, *obs.Obs) admission.Controller {
	return func(t testing.TB, o *obs.Obs) admission.Controller {
		ctrl, err := admission.New(admission.Config{
			Cluster: plan.Caps{Maps: 8, Reduces: 4},
			Mode:    admission.ModeFeasible,
			Tenants: tenants,
			Obs:     o,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ctrl
	}
}

// doorScenario is WOHA-LPF on 4 nodes of 2 map slots and 1 reduce slot
// behind tenants' feasibility door.
func doorScenario(t *testing.T, flows []*workflow.Workflow, tenants map[string]admission.Tenant) scenario {
	t.Helper()
	spec, err := experiments.SchedulerByName("WOHA-LPF")
	if err != nil {
		t.Fatal(err)
	}
	return scenario{nodes: 4, spec: spec, flows: flows, door: feasibleDoor(tenants)}
}

// TestAdmissionDecisionsAgreeAcrossLayouts runs one workload through the
// simulator and the master, each behind its own feasibility front door, and
// checks that the master produces the simulator's decision records and
// per-workflow refusal fields (differential.finish). The anchoring contract
// makes this exact: rulings anchor at release times, not at the
// control-plane instants the two reach them.
func TestAdmissionDecisionsAgreeAcrossLayouts(t *testing.T) {
	flows := []*workflow.Workflow{
		// Admits; the ledger commits a minimal slice.
		chainFlow("w1", 0, 2*time.Hour),
		// Rejects: 60s of critical path against a 50s budget, and no
		// commitment end inside the window can save it.
		chainFlow("w2", 10*time.Second, 60*time.Second),
		// Admits at the capacity left over from w1.
		chainFlow("w3", 20*time.Second, 2*time.Hour),
	}
	res := newDifferential(t, doorScenario(t, flows, nil), false).finish()
	for _, w := range res.Workflows {
		if w.Rejected != (w.Name == "w2") {
			t.Fatalf("refusal pattern %+v, want exactly w2 rejected", res.Workflows)
		}
	}
}

// TestAdmissionLayoutsAgreeOnMultiTenantNames is the simulator-to-master
// check for the (Tenant, Name) anchor keying: two tenants submit same-named
// workflows, one of them through a rate-limited defer chain whose anchor must
// survive the other tenant's terminal rulings on the colliding names. The
// master must produce the simulator's decision records — including the
// Tenant and Anchor fields — and its per-workflow outcomes. It runs under
// the stepped clock, so no stall of the host can move a ruling.
func TestAdmissionLayoutsAgreeOnMultiTenantNames(t *testing.T) {
	tenants := map[string]admission.Tenant{
		// One admission per 30 virtual seconds; the bucket starts full.
		"alpha": {Rate: 120, Burst: 1},
		"beta":  {},
	}
	mk := func(tenant, name string, rel, deadline time.Duration) *workflow.Workflow {
		w := chainFlow(name, rel, deadline)
		w.Tenant = tenant
		return w
	}
	flows := []*workflow.Workflow{
		// alpha/w1 admits and burns alpha's only token.
		mk("alpha", "w1", 0, 2*time.Hour),
		// alpha/w2 is rate-limited into a defer chain anchored ~30s out.
		mk("alpha", "w2", 5*time.Second, 2*time.Hour),
		// beta reuses both names and rules terminally while alpha/w2's
		// anchor is pending; name-only keys would wipe that chain here.
		mk("beta", "w1", 10*time.Second, 2*time.Hour),
		mk("beta", "w2", 15*time.Second, 2*time.Hour),
		// Both tenants also share a hopeless name: 60s of critical path
		// against sub-60s budgets rejects in either tenant independently.
		mk("alpha", "w3", 40*time.Second, 90*time.Second),
		mk("beta", "w3", 45*time.Second, 100*time.Second),
	}
	d := newDifferential(t, doorScenario(t, flows, tenants), false)
	res := d.finish()
	for j, w := range res.Workflows {
		if want := w.Name == "w3"; w.Rejected != want {
			t.Fatalf("refusal pattern %+v, want exactly the two w3 rows rejected (row %d)", res.Workflows, j)
		}
	}

	// alpha/w2's chain: a rate-limited defer followed by a retry ruling
	// anchored at the defer's RetryAt, not reset to the release — the
	// anchor survived beta's terminal rulings on the same names.
	recs := d.liveDoor.(decisionAudit).Records()
	var deferred, retried *admission.Record
	for i := range recs {
		r := &recs[i]
		if r.Tenant != "alpha" || r.Workflow != "w2" {
			continue
		}
		if r.Decision.Verdict == admission.Defer && deferred == nil {
			deferred = r
		} else if deferred != nil && retried == nil {
			retried = r
		}
	}
	if deferred == nil || retried == nil {
		t.Fatalf("alpha/w2 records %+v, want a defer then a retry ruling", recs)
	}
	if retried.Anchor != deferred.Decision.RetryAt {
		t.Errorf("alpha/w2 retry anchored at %v, want its RetryAt %v — defer chain was reset",
			retried.Anchor, deferred.Decision.RetryAt)
	}
}

// retryDoor defers each workflow's first ruling to one instant, at, and
// admits every later one, recording each ruling; its admission events tell
// the differential's replay when the simulator ruled.
type retryDoor struct {
	at    simtime.Time
	stats *obs.AdmissionStats

	mu   sync.Mutex
	seen map[string]bool
	recs []admission.Record
}

func newRetryDoor(at simtime.Time) func(testing.TB, *obs.Obs) admission.Controller {
	return func(_ testing.TB, o *obs.Obs) admission.Controller {
		return &retryDoor{at: at, stats: o.NewAdmissionStats("retry-door"), seen: map[string]bool{}}
	}
}

func (d *retryDoor) Name() string { return "retry-door" }

func (d *retryDoor) Decide(w *workflow.Workflow, _ *plan.Plan, now simtime.Time) admission.Decision {
	d.mu.Lock()
	defer d.mu.Unlock()
	dec := admission.Decision{Verdict: admission.Admit}
	if !d.seen[w.Name] {
		d.seen[w.Name] = true
		dec = admission.Decision{Verdict: admission.Defer, RetryAt: d.at}
		d.stats.OnDeferred(now, w.Name, d.at, 0)
	} else {
		d.stats.OnAdmitted(now, w.Name, 0)
	}
	d.recs = append(d.recs, admission.Record{Workflow: w.Name, Anchor: now, Decision: dec})
	return dec
}

func (d *retryDoor) Complete(*workflow.Workflow, simtime.Time) {}

func (d *retryDoor) Records() []admission.Record {
	d.mu.Lock()
	defer d.mu.Unlock()
	return slices.Clone(d.recs)
}

// TestDeferredRetriesRuledInDeferralOrder: two workflows deferred to one
// retry instant are ruled again there in the order they were deferred, not
// in submission order — the simulator's order, since it files each retry
// behind those already filed for that instant. Workflow 1 is released, and
// deferred, before workflow 0.
func TestDeferredRetriesRuledInDeferralOrder(t *testing.T) {
	retry := simtime.Epoch.Add(time.Minute)
	flows := []*workflow.Workflow{
		chainFlow("late", 20*time.Second, 2*time.Hour),
		chainFlow("early", 10*time.Second, 2*time.Hour),
	}
	spec, err := experiments.SchedulerByName("FIFO")
	if err != nil {
		t.Fatal(err)
	}
	d := newDifferential(t, scenario{nodes: 2, spec: spec, flows: flows, door: newRetryDoor(retry)}, false)
	d.finish()
	var got []string
	for _, r := range d.liveDoor.(decisionAudit).Records() {
		got = append(got, fmt.Sprintf("%s %v at %v", r.Workflow, r.Decision.Verdict, r.Anchor))
	}
	want := []string{
		"early defer at 10s", "late defer at 20s",
		fmt.Sprintf("early admit at %v", retry), fmt.Sprintf("late admit at %v", retry),
	}
	if !slices.Equal(got, want) {
		t.Errorf("rulings %q, want %q", got, want)
	}
}
