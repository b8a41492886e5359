package live_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/priority"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// decisionAudit is the introspection side of the staged pipeline (see
// admission.pipeline); the equivalence test compares full decision records,
// not just the per-workflow outcome fields.
type decisionAudit interface {
	Records() []admission.Record
}

// feasibleDoor builds a fresh feasibility controller sized to fastConfig's
// cluster. Controllers are stateful, so every layout gets its own.
func feasibleDoor(t *testing.T) admission.Controller {
	t.Helper()
	ctrl, err := admission.New(admission.Config{
		Cluster: plan.Caps{Maps: 8, Reduces: 4},
		Mode:    admission.ModeFeasible,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

// TestAdmissionDecisionsAgreeAcrossLayouts runs the same released workload
// through the single-mutex referee and the master, each behind its own
// feasibility front door, and checks the master produces the referee's
// decision records and per-workflow refusal fields. The
// anchoring contract makes this exact: rulings anchor at release times, not
// at the control-plane instants the layouts reach them.
func TestAdmissionDecisionsAgreeAcrossLayouts(t *testing.T) {
	flows := func() []*workflow.Workflow {
		return []*workflow.Workflow{
			// Admits; the ledger commits a minimal slice.
			chainFlow("w1", 0, 2*time.Hour),
			// Rejects: 60s of critical path against a 50s budget, and no
			// commitment end inside the window can save it.
			chainFlow("w2", 10*time.Second, 60*time.Second),
			// Admits at the capacity left over from w1.
			chainFlow("w3", 20*time.Second, 2*time.Hour),
		}
	}
	type row struct {
		rejected bool
		reason   string
		offer    simtime.Time
	}
	var wantRows map[string]row
	var wantRecs []admission.Record
	for _, l := range layouts {
		ctrl := feasibleDoor(t)
		cfg := fastConfig()
		cfg.Admission = ctrl
		c := l.build(t, cfg, core.NewScheduler(core.Options{Seed: 7}))
		for _, w := range flows() {
			p, err := plan.GenerateCapped(w, 12, priority.LPF{})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Submit(w, p); err != nil {
				t.Fatal(err)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		res, err := c.Run(ctx)
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		rows := map[string]row{}
		for _, w := range res.Workflows {
			rows[w.Name] = row{rejected: w.Rejected, reason: w.RejectReason, offer: w.CounterOffer}
		}
		if !rows["w2"].rejected || rows["w1"].rejected || rows["w3"].rejected {
			t.Fatalf("%s: refusal pattern %+v, want exactly w2 rejected", l.name, rows)
		}
		recs := ctrl.(decisionAudit).Records()
		if wantRows == nil {
			wantRows, wantRecs = rows, recs
			continue
		}
		if !reflect.DeepEqual(rows, wantRows) {
			t.Errorf("%s: outcome rows %+v differ from the reference's %+v", l.name, rows, wantRows)
		}
		if !reflect.DeepEqual(recs, wantRecs) {
			t.Errorf("%s: decision records diverge from the reference's:\n got %+v\nwant %+v", l.name, recs, wantRecs)
		}
	}
}

// TestAdmissionLayoutsAgreeOnMultiTenantNames is the cross-layout equivalence
// check for the (Tenant, Name) anchor keying: two tenants submit same-named
// workflows, one of them through a rate-limited defer chain whose anchor must
// survive the other tenant's terminal rulings on the colliding names. The
// master must produce the referee's decision records — including the Tenant
// and Anchor fields — and its per-workflow outcomes.
func TestAdmissionLayoutsAgreeOnMultiTenantNames(t *testing.T) {
	door := func() admission.Controller {
		ctrl, err := admission.New(admission.Config{
			Cluster: plan.Caps{Maps: 8, Reduces: 4},
			Mode:    admission.ModeFeasible,
			Tenants: map[string]admission.Tenant{
				// One admission per 30 virtual seconds; the bucket starts full.
				"alpha": {Rate: 120, Burst: 1},
				"beta":  {},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return ctrl
	}
	flows := func() []*workflow.Workflow {
		mk := func(tenant, name string, rel, deadline time.Duration) *workflow.Workflow {
			w := chainFlow(name, rel, deadline)
			w.Tenant = tenant
			return w
		}
		return []*workflow.Workflow{
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
	}
	type row struct {
		name     string
		rejected bool
		reason   string
		offer    simtime.Time
	}
	var wantRows []row
	var wantRecs []admission.Record
	for i, l := range layouts {
		ctrl := door()
		cfg := fastConfig()
		cfg.Admission = ctrl
		c := l.build(t, cfg, core.NewScheduler(core.Options{Seed: 7}))
		for _, w := range flows() {
			p, err := plan.GenerateCapped(w, 12, priority.LPF{})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Submit(w, p); err != nil {
				t.Fatal(err)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		res, err := c.Run(ctx)
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		rows := make([]row, 0, len(res.Workflows))
		for _, w := range res.Workflows {
			rows = append(rows, row{name: w.Name, rejected: w.Rejected, reason: w.RejectReason, offer: w.CounterOffer})
		}
		recs := ctrl.(decisionAudit).Records()
		for j, r := range rows {
			if want := r.name == "w3"; r.rejected != want {
				t.Fatalf("%s: refusal pattern %+v, want exactly the two w3 rows rejected (row %d)", l.name, rows, j)
			}
		}

		// alpha/w2's chain: a rate-limited defer followed by a retry ruling
		// anchored at the defer's RetryAt, not reset to the release — the
		// anchor survived beta's terminal rulings on the same names.
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
			t.Fatalf("%s: alpha/w2 records %+v, want a defer then a retry ruling", l.name, recs)
		}
		if retried.Anchor != deferred.Decision.RetryAt {
			t.Errorf("%s: alpha/w2 retry anchored at %v, want its RetryAt %v — defer chain was reset",
				l.name, retried.Anchor, deferred.Decision.RetryAt)
		}
		if i == 0 {
			wantRows, wantRecs = rows, recs
			continue
		}
		if !reflect.DeepEqual(rows, wantRows) {
			t.Errorf("%s: outcome rows %+v differ from the reference's %+v", l.name, rows, wantRows)
		}
		if !reflect.DeepEqual(recs, wantRecs) {
			t.Errorf("%s: decision records diverge from the reference's:\n got %+v\nwant %+v", l.name, recs, wantRecs)
		}
	}
}
