// Package admission is the cluster's front door: every workflow submission —
// the batch facade, the discrete-event simulator, and both live JobTracker
// layouts — flows through one AdmissionController.Decide seam before it
// reaches a scheduling queue.
//
// The paper admits every workflow unconditionally, so a hopeless deadline
// becomes a guaranteed miss that pollutes the miss-rate figures and steals
// slots from feasible work. This package turns the planner's cap search into
// an admission decision instead: a capacity Ledger tracks the map/reduce
// slot-time committed to each admitted plan, and the feasibility stage re-runs
// the cap search against the *uncommitted* remainder to admit, defer until
// capacity frees up, or reject with a counter-offered earliest feasible
// deadline. Stackable per-tenant policies — token-bucket rate limits, quota
// shares, and priority tiers — gate the feasibility stage per
// workflow.Workflow.Tenant.
//
// The default Always controller admits unconditionally with zero allocation,
// so every existing figure, parity oracle, and byte-identity test is
// untouched unless a caller opts in. See DESIGN.md §14.
package admission

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/priority"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// Verdict is the outcome class of one admission decision.
type Verdict uint8

// The three admission verdicts.
const (
	// Admit accepts the workflow now; the controller has committed capacity
	// for it and Complete must be called when it finishes.
	Admit Verdict = iota
	// Defer postpones the decision: re-Decide at Decision.RetryAt, when a
	// rate-limit token refills or committed capacity is scheduled to free.
	Defer
	// Reject turns the workflow away. Decision.CounterOffer, when non-zero,
	// is the earliest deadline the cluster's uncommitted capacity could have
	// honored at decision time.
	Reject
)

// String returns "admit", "defer", or "reject".
func (v Verdict) String() string {
	switch v {
	case Admit:
		return "admit"
	case Defer:
		return "defer"
	default:
		return "reject"
	}
}

// Decision is one admission ruling.
type Decision struct {
	// Verdict classifies the ruling.
	Verdict Verdict
	// Reason names the stage that ruled, e.g. "rate-limited", "infeasible".
	// Empty for plain admits.
	Reason string
	// RetryAt is when a deferred workflow should be re-decided (Defer only).
	RetryAt simtime.Time
	// CounterOffer is the earliest feasible absolute deadline at decision
	// time (Reject only; zero when even that could not be computed).
	CounterOffer simtime.Time
}

// Controller is the submission seam. Implementations must be safe for
// concurrent use: the live tracker rules on releases from whichever heartbeat
// goroutine is serving its pipeline.
//
// Decisions are anchored in virtual time: a controller bases its first ruling
// on w.Release and a retry ruling on the RetryAt it previously returned, not
// on the control plane's possibly-later now. Submissions ruled in the same
// order therefore receive identical decisions on every control-plane layout
// (pinned by the cross-layout equivalence test in internal/live).
type Controller interface {
	// Name identifies the controller configuration ("always", "feasible",
	// "token-bucket").
	Name() string
	// Decide rules on one submission. now is the control-plane instant of
	// the ruling (metrics only; see the anchoring contract above).
	Decide(w *workflow.Workflow, p *plan.Plan, now simtime.Time) Decision
	// Complete releases capacity committed to an admitted workflow. Calling
	// it for a workflow that was never admitted is a no-op.
	Complete(w *workflow.Workflow, now simtime.Time)
}

// always is the default controller: admit everything, commit nothing.
// Decide performs no allocation (pinned by TestAlwaysAdmitAllocs and the
// make ci alloc-pins target).
type always struct {
	stats *obs.AdmissionStats
}

// Always returns the always-admit controller. ins may be nil; when
// instrumented, admissions still count into woha_admission_admitted_total
// without allocating.
func Always(ins *obs.Obs) Controller { return &always{stats: ins.NewAdmissionStats("always")} }

func (a *always) Name() string { return "always" }

func (a *always) Decide(w *workflow.Workflow, p *plan.Plan, now simtime.Time) Decision {
	a.stats.OnAdmitted(now, w.Name, 0)
	return Decision{Verdict: Admit}
}

func (a *always) Complete(w *workflow.Workflow, now simtime.Time) {}

// Tenant configures the per-tenant policy stack for one workflow.Tenant
// value. The zero value disables every stage (unlimited).
type Tenant struct {
	// Rate is the token-bucket refill rate in admissions per virtual hour;
	// 0 disables rate limiting for the tenant.
	Rate float64
	// Burst is the bucket capacity (defaults to 1 when Rate > 0). The bucket
	// starts full.
	Burst int
	// Quota caps the fraction of total cluster slot capacity the tenant may
	// hold committed concurrently, in (0, 1]; 0 disables.
	Quota float64
	// Tier is the tenant's priority tier: 0 (highest) sees the whole
	// cluster, higher tiers a shrinking fraction (tierCeilings).
	Tier int
}

// Config parameterizes New.
type Config struct {
	// Cluster is the cluster's typed slot capacity the ledger accounts
	// against.
	Cluster plan.Caps
	// Mode selects the controller: "always" (the default), "feasible"
	// (ledger-backed deadline-feasibility checks), or "token-bucket"
	// (per-tenant rate limiting only, no ledger).
	Mode string
	// Policy orders jobs for the feasibility cap search (default LPF, the
	// paper's strongest priority policy).
	Policy priority.Policy
	// Margin is the safety margin applied to the feasibility search target,
	// in (0, 1]; the default 1.0 admits anything that fits exactly.
	Margin float64
	// Tenants maps workflow.Workflow.Tenant values to their policy stack.
	// Workflows with an unlisted (or empty) tenant skip the tenant stages.
	Tenants map[string]Tenant
	// Obs attaches the woha_admission_* instruments; nil disables.
	Obs *obs.Obs
}

// tierCeilings[t] is the fraction of cluster capacity tier t may use; tiers
// beyond the slice reuse the last entry.
var tierCeilings = [...]float64{1, 0.75, 0.5}

// Modes.
const (
	ModeAlways      = "always"
	ModeFeasible    = "feasible"
	ModeTokenBucket = "token-bucket"
)

// New builds a controller for cfg.Mode. An empty mode selects "always".
func New(cfg Config) (Controller, error) {
	switch cfg.Mode {
	case "", ModeAlways:
		return Always(cfg.Obs), nil
	case ModeFeasible, ModeTokenBucket:
	default:
		return nil, fmt.Errorf("admission: unknown mode %q (want %s, %s, or %s)",
			cfg.Mode, ModeAlways, ModeFeasible, ModeTokenBucket)
	}
	if cfg.Mode == ModeFeasible && (cfg.Cluster.Maps <= 0 || cfg.Cluster.Reduces <= 0) {
		return nil, fmt.Errorf("admission: cluster caps %+v, want both pools > 0", cfg.Cluster)
	}
	if cfg.Margin == 0 {
		cfg.Margin = 1.0
	}
	if cfg.Margin < 0 || cfg.Margin > 1 {
		return nil, fmt.Errorf("admission: margin %v, want (0, 1]", cfg.Margin)
	}
	if cfg.Policy == nil {
		cfg.Policy = priority.LPF{}
	}
	for name, t := range cfg.Tenants {
		if t.Rate < 0 || t.Quota < 0 || t.Quota > 1 || t.Tier < 0 || t.Burst < 0 {
			return nil, fmt.Errorf("admission: tenant %q config %+v invalid", name, t)
		}
	}
	p := &pipeline{
		cfg:     cfg,
		ledger:  NewLedger(cfg.Cluster),
		buckets: make(map[string]*bucket),
		anchors: make(map[wfKey]anchor),
		stats:   cfg.Obs.NewAdmissionStats(cfg.Mode),
	}
	return p, nil
}

// wfKey identifies a submission for defer-anchor tracking. Tenant is part of
// the key: workflow names are only unique per tenant, and keying by name
// alone made two tenants' same-named submissions share one anchor instant
// and one maxDeferrals budget (and let either tenant's terminal ruling drop
// the other's pending anchor, resetting its defer count).
type wfKey struct {
	tenant string
	name   string
}

func keyOf(w *workflow.Workflow) wfKey {
	return wfKey{tenant: w.Tenant, name: w.Name}
}

// anchor tracks a deferred workflow's next decision instant and how many
// times it has been deferred.
type anchor struct {
	at     simtime.Time
	defers int
}

// maxDeferrals bounds a workflow's defer chain; past it the pipeline rejects
// rather than risking livelock under churning commitments.
const maxDeferrals = 16

// Record is one audit-log entry: the inputs and outcome of a ruling, exact
// enough that a sequential cap search can re-derive the decision (the
// counter-offer exactness and provable-infeasibility tests do exactly that).
type Record struct {
	// Workflow and Tenant identify the submission.
	Workflow string
	Tenant   string
	// Anchor is the virtual decision instant (release or retry time).
	Anchor simtime.Time
	// Free is the uncommitted typed capacity the feasibility stage saw at
	// the anchor (zero value when the ruling came from an earlier stage).
	Free plan.Caps
	// Decision is the ruling.
	Decision Decision
}

// pipeline is the stacking controller: rate limit → quota → tier → deadline
// feasibility, first non-admit wins. One mutex serializes rulings — admission
// is per-workflow, not per-heartbeat, so the lock is far off any hot path.
type pipeline struct {
	mu      sync.Mutex
	cfg     Config
	ledger  *Ledger
	buckets map[string]*bucket
	anchors map[wfKey]anchor
	records []Record
	stats   *obs.AdmissionStats
}

// anchorCount reports the live defer-anchor entries — one per currently
// deferred submission. The leak regression test asserts it returns to zero
// once every submission has reached a terminal ruling.
func (p *pipeline) anchorCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.anchors)
}

func (p *pipeline) Name() string { return p.cfg.Mode }

// Records returns a snapshot of the audit log, in decision order.
func (p *pipeline) Records() []Record {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Record(nil), p.records...)
}

// Ledger exposes the capacity ledger for tests and introspection. Callers
// must not mutate it.
func (p *pipeline) Ledger() *Ledger { return p.ledger }

// Decide implements Controller.
func (p *pipeline) Decide(w *workflow.Workflow, pl *plan.Plan, now simtime.Time) Decision {
	t0 := time.Now()
	p.mu.Lock()
	d, free := p.decideLocked(w, pl)
	p.records = append(p.records, Record{
		Workflow: w.Name, Tenant: w.Tenant,
		Anchor: p.anchorFor(w), Free: free, Decision: d,
	})
	switch d.Verdict {
	case Defer:
		a := p.anchors[keyOf(w)]
		p.anchors[keyOf(w)] = anchor{at: d.RetryAt, defers: a.defers + 1}
	default:
		// Every terminal ruling — Admit, any stage's Reject, the
		// deferral-limit Reject — drops the anchor here, so the map is
		// bounded by the number of currently deferred submissions and a
		// long-lived daemon cannot accrete entries.
		delete(p.anchors, keyOf(w))
	}
	p.mu.Unlock()
	dur := time.Since(t0)
	switch d.Verdict {
	case Admit:
		p.stats.OnAdmitted(now, w.Name, dur)
	case Defer:
		p.stats.OnDeferred(now, w.Name, d.RetryAt, dur)
	default:
		p.stats.OnRejected(now, w.Name, d.Reason, d.CounterOffer, dur)
	}
	return d
}

// anchorFor returns the virtual instant this ruling is anchored at: the
// workflow's release, or the retry time of its pending deferral.
func (p *pipeline) anchorFor(w *workflow.Workflow) simtime.Time {
	if a, ok := p.anchors[keyOf(w)]; ok {
		return a.at
	}
	return w.Release
}

// decideLocked runs the policy stack. It returns the ruling plus the free
// capacity the feasibility stage observed (zero if never reached).
func (p *pipeline) decideLocked(w *workflow.Workflow, pl *plan.Plan) (Decision, plan.Caps) {
	at := p.anchorFor(w)
	if p.anchors[keyOf(w)].defers >= maxDeferrals {
		return Decision{Verdict: Reject, Reason: "deferral-limit"}, plan.Caps{}
	}
	tn, hasTenant := p.cfg.Tenants[w.Tenant]

	// Stage 1: token-bucket rate limit.
	if hasTenant && tn.Rate > 0 {
		b := p.bucketFor(w.Tenant, tn)
		if wait := b.wait(at); wait > 0 {
			return Decision{Verdict: Defer, Reason: "rate-limited", RetryAt: at.Add(wait)}, plan.Caps{}
		}
	}
	if p.cfg.Mode == ModeTokenBucket {
		// Rate limiting is the whole pipeline in this mode; no ledger.
		p.takeToken(w.Tenant, tn, hasTenant, at)
		return Decision{Verdict: Admit}, plan.Caps{}
	}

	// Expire commitments whose reserved window has fully passed; a workflow
	// still running past its estimate no longer holds a reservation.
	p.ledger.Expire(at)

	// Stage 2: quota share — the tenant's concurrent committed slot peak.
	if hasTenant && tn.Quota > 0 {
		if d, ok := p.quotaStage(w, tn, at); !ok {
			return d, plan.Caps{}
		}
	}

	// Stage 3: priority tier shrinks the capacity the feasibility search may
	// claim.
	eff := p.effectiveCluster(tn, hasTenant)

	// Stage 4: deadline feasibility against uncommitted capacity.
	d, free := p.feasibilityStage(w, pl, eff, at)
	if d.Verdict == Admit {
		p.takeToken(w.Tenant, tn, hasTenant, at)
	}
	return d, free
}

// bucketFor returns the tenant's token bucket, creating it full.
func (p *pipeline) bucketFor(tenant string, tn Tenant) *bucket {
	b := p.buckets[tenant]
	if b == nil {
		burst := tn.Burst
		if burst <= 0 {
			burst = 1
		}
		b = &bucket{rate: tn.Rate / float64(time.Hour), burst: float64(burst), tokens: float64(burst)}
		p.buckets[tenant] = b
	}
	return b
}

// takeToken debits one token on admit. Tokens are only consumed by
// admissions, so a workflow deferred or rejected downstream does not burn the
// tenant's budget.
func (p *pipeline) takeToken(tenant string, tn Tenant, hasTenant bool, at simtime.Time) {
	if hasTenant && tn.Rate > 0 {
		p.bucketFor(tenant, tn).take(at)
	}
}

// effectiveCluster applies the tenant's tier ceiling to the cluster caps.
func (p *pipeline) effectiveCluster(tn Tenant, hasTenant bool) plan.Caps {
	if !hasTenant {
		return p.cfg.Cluster
	}
	c := tierCeilings[min(tn.Tier, len(tierCeilings)-1)]
	eff := plan.Caps{
		Maps:    int(float64(p.cfg.Cluster.Maps) * c),
		Reduces: int(float64(p.cfg.Cluster.Reduces) * c),
	}
	if eff.Maps < 1 {
		eff.Maps = 1
	}
	if eff.Reduces < 1 {
		eff.Reduces = 1
	}
	return eff
}

// quotaStage enforces the tenant's committed-capacity share. ok=false means
// the returned decision stands.
func (p *pipeline) quotaStage(w *workflow.Workflow, tn Tenant, at simtime.Time) (Decision, bool) {
	budget := int(tn.Quota * float64(p.cfg.Cluster.Total()))
	if budget < 2 {
		budget = 2 // always room for the 1-map 1-reduce floor
	}
	used := p.ledger.TenantPeakOver(w.Tenant, at, w.Deadline)
	room := budget - used.Total()
	if room >= minCommitTotal {
		return Decision{}, true
	}
	// Over quota: wait for the tenant's own earliest commitment to end, or
	// reject when the workflow could never fit its quota at all.
	if retry, ok := p.ledger.NextTenantEnd(w.Tenant, at); ok && retry < w.Deadline {
		return Decision{Verdict: Defer, Reason: "quota-exceeded", RetryAt: retry}, false
	}
	return Decision{Verdict: Reject, Reason: "quota-exceeded"}, false
}

// minCommitTotal is the smallest commitment any admission makes: the typed
// cap search floor of one map plus one reduce slot.
const minCommitTotal = 2

// feasibilityStage runs the planner's cap search against uncommitted
// capacity: admit at the minimal feasible cap (committing it), defer to the
// earliest commitment end that would make the deadline reachable, or reject
// with the earliest feasible deadline as a counter-offer. The ruling reads
// makespans and nothing else, so it ranks the workflow at most once (not at
// all when pl carries the ranks), binds one plan.Kernel for the whole ruling,
// and builds no plan.
func (p *pipeline) feasibilityStage(w *workflow.Workflow, pl *plan.Plan, eff plan.Caps, at simtime.Time) (Decision, plan.Caps) {
	budget := w.Deadline.Sub(at)
	if budget <= 0 {
		return Decision{Verdict: Reject, Reason: "deadline-passed"}, plan.Caps{}
	}
	free := p.ledger.FreeOver(at, w.Deadline, eff)
	ranks, err := p.ranks(w, pl)
	if err != nil {
		return Decision{Verdict: Reject, Reason: "unrankable: " + err.Error()}, free
	}
	k, err := plan.Bind(w, ranks)
	if err != nil {
		return Decision{Verdict: Reject, Reason: "unplannable: " + err.Error()}, free
	}
	defer k.Release()
	if free.Maps < 1 || free.Reduces < 1 {
		return p.deferOrReject(w, k, eff, at, free, simtime.Epoch)
	}
	// The smallest slice of the free capacity that still makes the
	// (margin-discounted) budget, exactly as plan generation searches. When
	// the whole window misses the budget, its makespan prices the
	// counter-offer.
	s, err := k.Search(plan.Ladder{Lo: 2, Hi: free.Total(), Typed: true, Cluster: free}, p.cfg.Margin, budget)
	if err != nil {
		return Decision{Verdict: Reject, Reason: "unplannable: " + err.Error()}, free
	}
	if s.Makespan > budget {
		return p.deferOrReject(w, k, eff, at, free, at.Add(s.Makespan))
	}
	caps := plan.TypedCapsFor(free, s.Cap)
	if err := p.ledger.Commit(Commitment{
		Workflow: w.Name, Tenant: w.Tenant,
		Start: at, End: at.Add(s.Makespan),
		Maps: caps.Maps, Reduces: caps.Reduces,
	}); err != nil {
		// Defensive: FreeOver guarantees the window fits, so a conflict here
		// is a bug — surface it as a reject rather than over-committing.
		return Decision{Verdict: Reject, Reason: "ledger-conflict: " + err.Error()}, free
	}
	return Decision{Verdict: Admit}, free
}

// ranks is the job ordering a ruling simulates: pl's, when the caller passed
// a plan made under this pipeline's policy for a table of w's size, else a
// fresh ranking. The policies rank from the job table alone, so the two
// agree for a plan of w.
func (p *pipeline) ranks(w *workflow.Workflow, pl *plan.Plan) ([]int, error) {
	if pl != nil && pl.Policy == p.cfg.Policy.Name() && len(pl.Ranks) == len(w.Jobs) {
		return pl.Ranks, nil
	}
	return p.cfg.Policy.Rank(w)
}

// deferOrReject finds the earliest commitment end after which the workflow
// could still meet its deadline; failing that it rejects, carrying offer (the
// earliest feasible deadline at current free capacity) when known. k is the
// ruling's kernel; a candidate its lower bound rules out is skipped, and
// every other one is one limited makespan query on it.
func (p *pipeline) deferOrReject(w *workflow.Workflow, k *plan.Kernel, eff plan.Caps, at simtime.Time, free plan.Caps, offer simtime.Time) (Decision, plan.Caps) {
	// Every future commitment end, once: the ends inside the asked window
	// are a prefix of it.
	ends := p.ledger.EndsWithin(at, simtime.MaxTime)
	for _, t := range ends {
		if t >= w.Deadline {
			break
		}
		cand := p.ledger.FreeOver(t, w.Deadline, eff)
		if cand.Maps < 1 || cand.Reduces < 1 || (cand.Maps <= free.Maps && cand.Reduces <= free.Reduces) {
			continue
		}
		limit := w.Deadline.Sub(t)
		if lower, _, ok := k.BoundsTyped(cand); ok && lower > limit {
			continue
		}
		if _, within, err := k.MakespanTyped(cand, limit); err == nil && within {
			return Decision{Verdict: Defer, Reason: "awaiting-capacity", RetryAt: t}, free
		}
	}
	// Rejecting. Price the counter-offer as the earliest feasible deadline:
	// the asked-window offer (when the window had capacity to price one)
	// improved by finishing after any future commitment end, where freed
	// capacity may complete the workflow sooner than the starved window.
	for _, t := range ends {
		if offer != simtime.Epoch && t >= offer {
			break // ends are sorted; later starts cannot finish earlier
		}
		cand := p.ledger.FreeOver(t, simtime.MaxTime, eff)
		if cand.Maps < 1 || cand.Reduces < 1 {
			continue
		}
		// Only a finish before the standing offer improves it, so the
		// candidate may stop there.
		limit := plan.Unlimited
		if offer != simtime.Epoch {
			limit = offer.Sub(t)
		}
		if lower, _, ok := k.BoundsTyped(cand); ok && lower > limit {
			continue
		}
		if ms, within, err := k.MakespanTyped(cand, limit); err == nil && within {
			offer = t.Add(ms)
		}
	}
	return Decision{Verdict: Reject, Reason: "infeasible", CounterOffer: offer}, free
}

// Complete implements Controller: release the workflow's commitment.
func (p *pipeline) Complete(w *workflow.Workflow, now simtime.Time) {
	p.mu.Lock()
	released := p.ledger.Release(w.Tenant, w.Name)
	p.mu.Unlock()
	if released {
		p.stats.OnRelease()
	}
}

// bucket is a token bucket over virtual time. Refill is lazy and clamped so
// an out-of-order anchor (a deferred workflow deciding after a later release)
// can neither rewind nor double-refill the bucket.
type bucket struct {
	rate   float64 // tokens per nanosecond of virtual time
	burst  float64
	tokens float64
	last   simtime.Time
}

// refill brings the bucket forward to at.
func (b *bucket) refill(at simtime.Time) {
	if at > b.last {
		b.tokens += b.rate * float64(at.Sub(b.last))
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = at
	}
}

// wait returns how long past at the bucket needs before a token is whole;
// zero means a token is available now.
func (b *bucket) wait(at simtime.Time) time.Duration {
	b.refill(at)
	if b.tokens >= 1 {
		return 0
	}
	return time.Duration((1-b.tokens)/b.rate) + time.Nanosecond
}

// take consumes one token at the given instant.
func (b *bucket) take(at simtime.Time) {
	b.refill(at)
	b.tokens--
}
