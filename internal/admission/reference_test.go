package admission

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/oracle"
	"repro/internal/plan"
	"repro/internal/simtime"
	"repro/internal/workflow"
	"repro/internal/workload"
)

// The reference below is the feasibility stage as it stood before it moved
// onto plan.Kernel: every question is answered by building a full plan and
// reading one field of it, the commit slice is bisected over full plans, the
// workflow is ranked twice and the ledger's ends are taken twice. It is kept
// here, test-only, and driven beside the real pipeline: the two must rule
// identically, record for record.

// refPipeline rules with the reference stage over its own ledger and anchors
// (borrowed from a pipeline that is never asked to Decide).
type refPipeline struct{ p *pipeline }

func newRefPipeline(t *testing.T, cfg Config) refPipeline {
	t.Helper()
	for name, tn := range cfg.Tenants {
		if tn.Rate != 0 || tn.Quota != 0 {
			t.Fatalf("reference pipeline models tiers only; tenant %q has rate/quota stages", name)
		}
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return refPipeline{p: c.(*pipeline)}
}

// decide mirrors pipeline.Decide/decideLocked for a tier-only configuration.
func (r refPipeline) decide(w *workflow.Workflow) Decision {
	p := r.p
	at := p.anchorFor(w)
	var d Decision
	var free plan.Caps
	if p.anchors[keyOf(w)].defers >= maxDeferrals {
		d = Decision{Verdict: Reject, Reason: "deferral-limit"}
	} else {
		p.ledger.Expire(at)
		tn, hasTenant := p.cfg.Tenants[w.Tenant]
		d, free = r.feasibilityStage(w, p.effectiveCluster(tn, hasTenant), at)
	}
	p.records = append(p.records, Record{Workflow: w.Name, Tenant: w.Tenant, Anchor: at, Free: free, Decision: d})
	if d.Verdict == Defer {
		p.anchors[keyOf(w)] = anchor{at: d.RetryAt, defers: p.anchors[keyOf(w)].defers + 1}
	} else {
		delete(p.anchors, keyOf(w))
	}
	return d
}

func (r refPipeline) feasibilityStage(w *workflow.Workflow, eff plan.Caps, at simtime.Time) (Decision, plan.Caps) {
	p := r.p
	budget := w.Deadline.Sub(at)
	if budget <= 0 {
		return Decision{Verdict: Reject, Reason: "deadline-passed"}, plan.Caps{}
	}
	free := p.ledger.FreeOver(at, w.Deadline, eff)
	if free.Maps < 1 || free.Reduces < 1 {
		return r.deferOrReject(w, eff, at, free, simtime.Epoch)
	}
	ranks, err := p.cfg.Policy.Rank(w)
	if err != nil {
		return Decision{Verdict: Reject, Reason: "unrankable: " + err.Error()}, free
	}
	full, err := plan.GenerateTyped(w, free, p.cfg.Policy.Name(), ranks)
	if err != nil {
		return Decision{Verdict: Reject, Reason: "unplannable: " + err.Error()}, free
	}
	offer := at.Add(full.Makespan)
	if full.Makespan > budget {
		return r.deferOrReject(w, eff, at, free, offer)
	}
	target := time.Duration(p.cfg.Margin * float64(budget))
	if full.Makespan > target {
		target = budget
	}
	best, _, err := oracle.Bisect(2, free.Total(), func(mid int) (*plan.Plan, bool, error) {
		q, err := plan.GenerateTyped(w, plan.TypedCapsFor(free, mid), p.cfg.Policy.Name(), ranks)
		return q, err == nil && q.Makespan <= target, err
	})
	if err != nil {
		return Decision{Verdict: Reject, Reason: "unplannable: " + err.Error()}, free
	}
	if best == nil {
		best = full
	}
	caps := plan.TypedCapsFor(free, best.Cap)
	if best.Cap >= free.Total() {
		caps = free
	}
	if err := p.ledger.Commit(Commitment{
		Workflow: w.Name, Tenant: w.Tenant,
		Start: at, End: at.Add(best.Makespan),
		Maps: caps.Maps, Reduces: caps.Reduces,
	}); err != nil {
		return Decision{Verdict: Reject, Reason: "ledger-conflict: " + err.Error()}, free
	}
	return Decision{Verdict: Admit}, free
}

func (r refPipeline) deferOrReject(w *workflow.Workflow, eff plan.Caps, at simtime.Time, free plan.Caps, offer simtime.Time) (Decision, plan.Caps) {
	p := r.p
	ranks, err := p.cfg.Policy.Rank(w)
	if err != nil {
		return Decision{Verdict: Reject, Reason: "unrankable: " + err.Error(), CounterOffer: offer}, free
	}
	for _, t := range p.ledger.EndsWithin(at, w.Deadline) {
		cand := p.ledger.FreeOver(t, w.Deadline, eff)
		if cand.Maps < 1 || cand.Reduces < 1 || (cand.Maps <= free.Maps && cand.Reduces <= free.Reduces) {
			continue
		}
		probe, err := plan.GenerateTyped(w, cand, p.cfg.Policy.Name(), ranks)
		if err != nil {
			continue
		}
		if probe.Makespan <= w.Deadline.Sub(t) {
			return Decision{Verdict: Defer, Reason: "awaiting-capacity", RetryAt: t}, free
		}
	}
	for _, t := range p.ledger.EndsWithin(at, simtime.MaxTime) {
		if offer != simtime.Epoch && t >= offer {
			break
		}
		cand := p.ledger.FreeOver(t, simtime.MaxTime, eff)
		if cand.Maps < 1 || cand.Reduces < 1 {
			continue
		}
		probe, err := plan.GenerateTyped(w, cand, p.cfg.Policy.Name(), ranks)
		if err != nil {
			continue
		}
		if o := t.Add(probe.Makespan); offer == simtime.Epoch || o < offer {
			offer = o
		}
	}
	return Decision{Verdict: Reject, Reason: "infeasible", CounterOffer: offer}, free
}

// smokeCorpus is the admission-smoke shape, jittered: near-identical
// two-phase workflows arriving faster than a 4-map/2-reduce cluster clears
// them, some from a tenant whose tier sees half the cluster.
func smokeCorpus(seed int64) ([]*workflow.Workflow, Config) {
	rng := rand.New(rand.NewSource(seed))
	var flows []*workflow.Workflow
	for i := 0; i < 24; i++ {
		rel := time.Duration(i)*40*time.Second + time.Duration(rng.Intn(30))*time.Second
		dl := rel + time.Duration(450+rng.Intn(1200))*time.Second
		w := workflow.NewBuilder(fmt.Sprintf("w%02d", i)).
			Job("crunch", 4+rng.Intn(8), 1+rng.Intn(3), time.Duration(60+rng.Intn(80))*time.Second, time.Duration(60+rng.Intn(80))*time.Second).
			MustBuild(simtime.Epoch.Add(rel), simtime.Epoch.Add(dl))
		if i%5 == 4 {
			w.Tenant = "batch"
		}
		flows = append(flows, w)
	}
	return flows, Config{
		Cluster: plan.Caps{Maps: 4, Reduces: 2},
		Mode:    ModeFeasible,
		Tenants: map[string]Tenant{"batch": {Tier: 2}},
	}
}

// frontDoorCorpus is a front_door-like mix: a few hundred small Yahoo-shaped
// DAGs released over a day a 24+24-slot member cannot quite keep up with,
// planned at the experiments' 0.85 margin.
func frontDoorCorpus(t *testing.T, seed int64) ([]*workflow.Workflow, Config) {
	t.Helper()
	cfg := workload.DefaultYahooConfig()
	cfg.Seed = seed
	cfg.Workflows *= 4
	cfg.Jobs *= 4
	cfg.SingleJob *= 4
	cfg.Scheme = workload.DeadlineStretch
	cfg.ReferenceSlots = 48
	cfg.ReleaseWindow = 24 * time.Hour
	flows, err := workload.Yahoo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return workload.MultiJob(flows), Config{
		Cluster: plan.Caps{Maps: 24, Reduces: 24},
		Mode:    ModeFeasible,
		Margin:  0.85,
	}
}

// TestFeasibilityMatchesReference drives the real pipeline and the reference
// side by side over seeded overload corpora, as a control plane would:
// rulings at release and at every retry instant, completions interleaved
// (early, on time and late against the committed window) so commitments end
// and defer chains happen. Each ruling must agree as it is made, and the two
// audit logs — anchor, free capacity, verdict, reason, retry instant,
// counter-offer — must be equal entry for entry.
func TestFeasibilityMatchesReference(t *testing.T) {
	type event struct {
		w        *workflow.Workflow
		complete bool
	}
	verdicts := map[string]int{}
	offers := 0
	for seed := int64(1); seed <= 8; seed++ {
		for _, corpus := range []string{"smoke", "front-door"} {
			var flows []*workflow.Workflow
			var cfg Config
			if corpus == "smoke" {
				flows, cfg = smokeCorpus(seed)
			} else {
				flows, cfg = frontDoorCorpus(t, seed)
			}
			ctrl, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			real, ref := ctrl.(*pipeline), newRefPipeline(t, cfg)
			rng := rand.New(rand.NewSource(seed))
			var q simtime.Queue[event]
			for _, w := range flows {
				q.Push(w.Release, event{w: w})
			}
			for q.Len() > 0 {
				at, e, _ := q.Pop()
				if e.complete {
					real.Complete(e.w, at)
					ref.p.ledger.Release(e.w.Tenant, e.w.Name)
					continue
				}
				got, want := real.Decide(e.w, nil, at), ref.decide(e.w)
				if got != want {
					t.Fatalf("%s seed %d: %s at %v ruled %+v, reference %+v", corpus, seed, e.w.Name, at, got, want)
				}
				verdicts[got.Verdict.String()+" "+got.Reason]++
				switch got.Verdict {
				case Admit:
					// Finish somewhere between a third of the way to the
					// deadline and a fifth past it.
					span := float64(e.w.Deadline.Sub(at)) * (0.33 + 0.87*rng.Float64())
					q.Push(at.Add(time.Duration(span)), event{w: e.w, complete: true})
				case Defer:
					q.Push(got.RetryAt, event{w: e.w})
				default:
					if got.CounterOffer != simtime.Epoch {
						offers++
					}
				}
			}
			got, want := real.Records(), ref.p.Records()
			if len(got) != len(want) {
				t.Fatalf("%s seed %d: %d records, reference %d", corpus, seed, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s seed %d: record %d = %+v, reference %+v", corpus, seed, i, got[i], want[i])
				}
			}
			if real.anchorCount() != 0 {
				t.Errorf("%s seed %d: %d anchors left after every submission reached a terminal ruling", corpus, seed, real.anchorCount())
			}
		}
	}
	t.Logf("rulings compared: %v; %d counter-offers", verdicts, offers)
	for _, kind := range []string{"admit ", "defer awaiting-capacity", "reject infeasible"} {
		if verdicts[kind] == 0 {
			t.Errorf("no %q ruling in any corpus: the comparison never exercised that path", kind)
		}
	}
	if offers == 0 {
		t.Error("no rejection carried a counter-offer: the pricing loop was never compared")
	}
}

// BenchmarkDecideFeasible is one feasibility ruling against a half-committed
// ledger: the window probe, the commit-slice bisection and the commit, then
// the completion that frees the slice again.
func BenchmarkDecideFeasible(b *testing.B) {
	cluster := plan.Caps{Maps: 48, Reduces: 48}
	ctrl, err := New(Config{Cluster: cluster, Mode: ModeFeasible, Margin: 0.85})
	if err != nil {
		b.Fatal(err)
	}
	p := ctrl.(*pipeline)
	// Standing commitments, staggered, holding half of each pool.
	for i := 0; i < 12; i++ {
		if err := p.ledger.Commit(Commitment{
			Workflow: fmt.Sprintf("held-%d", i),
			Start:    simtime.Epoch, End: simtime.Epoch.Add(time.Duration(2+i) * time.Hour),
			Maps: 2, Reduces: 2,
		}); err != nil {
			b.Fatal(err)
		}
	}
	cfg := workload.DefaultYahooConfig()
	cfg.Scheme = workload.DeadlineStretch
	cfg.ReferenceSlots = 48
	cfg.ReleaseWindow = 0
	all, err := workload.Yahoo(cfg)
	if err != nil {
		b.Fatal(err)
	}
	flows := workload.MultiJob(all)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := flows[i%len(flows)]
		p.Decide(w, nil, w.Release)
		p.Complete(w, w.Release)
		p.records = p.records[:0] // the audit log is not what is measured
	}
}
