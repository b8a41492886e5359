// Package planner is the plan-generation service sitting between workflow
// admission and the Algorithm 1 generators in internal/plan. It adds two
// throughput layers on top of the seed generators without changing a single
// plan byte, both held in one plan table (see planCache):
//
//   - a structural LRU plan cache, which recognizes that production
//     workloads are template-heavy — recurring instances and renamed copies
//     of the same DAG shape compare equal as keys — and serves repeat
//     requests without simulating, hashing or copying;
//   - singleflight request coalescing, which lets one Planner be shared by
//     many concurrent clients — runner cells, sessions — with each distinct
//     (structural key, job ordering) simulated exactly once: the first
//     requester generates, concurrent requesters of the same key and
//     ordering block on that generation and receive its plan.
//
// A plan is keyed by the ordering it was simulated under, not by the name of
// the policy that produced the ordering: HLF, LPF and MPF often rank a small
// workflow's jobs alike, and a request under one of them is then served the
// plan another's search built, under its own policy's name.
//
// Both layers are observable through obs.PlannerStats and both are exact:
// a plan served by the planner is byte-identical (per plan.Encode) to the
// one the seed plan.GenerateCapped* call would build, which the
// determinism tests in this package pin down. Every cap search is the
// sequential bisection, plan.Kernel.Search; the planner's concurrency is
// across workflows (PlanAll) and across clients.
package planner

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/priority"
	"repro/internal/workflow"
)

// DefaultMargin is the planning margin used when Config.Margin is zero,
// matching the facade's default (plan to 85% of the deadline, keeping a 15%
// runtime cushion as in the paper's evaluation).
const DefaultMargin = 0.85

// Config tunes a Planner. The zero value is the conservative seed setup:
// one workflow at a time, no cache, default margin, no instrumentation.
type Config struct {
	// Workers is how many workflows PlanAll plans at once. Values <= 1 mean
	// one at a time; callers wanting one worker per core pass
	// runtime.GOMAXPROCS(0).
	Workers int
	// CacheSize is the maximum number of plans retained by the structural
	// cache; <= 0 disables caching.
	CacheSize int
	// Margin is the deadline fraction targeted by capped searches; zero
	// selects DefaultMargin.
	Margin float64
	// Obs receives planner metrics; nil disables instrumentation.
	Obs *obs.Obs
}

// Planner generates progress plans for workflow admission. Safe for
// concurrent use — and designed to be shared: one Planner serving many
// concurrent clients (runner cells, sessions) coalesces requests so each
// distinct (structural key, job ordering) is simulated exactly once (see
// planCache).
type Planner struct {
	workers int
	margin  float64
	cache   *planCache
	stats   *obs.PlannerStats
}

// New builds a Planner from cfg.
func New(cfg Config) *Planner {
	p := &Planner{workers: cfg.Workers, margin: cfg.Margin}
	if p.workers < 1 {
		p.workers = 1
	}
	if p.margin == 0 {
		p.margin = DefaultMargin
	}
	p.stats = cfg.Obs.NewPlannerStats()
	p.cache = newPlanCache(cfg.CacheSize, p.stats)
	return p
}

// Margin returns the planning margin this Planner targets.
func (pl *Planner) Margin() float64 { return pl.margin }

// Stats exposes the planner's instruments (nil when Config.Obs was nil).
func (pl *Planner) Stats() *obs.PlannerStats { return pl.stats }

// CacheLen reports how many plans the structural cache currently holds.
func (pl *Planner) CacheLen() int { return pl.cache.len() }

// Plan produces the typed capped plan for w on a cluster with the given
// map/reduce slot pools — the planner-service equivalent of
// plan.GenerateCappedTyped at the configured margin.
//
// Plans served by a Planner (here and by PlanAll) are shared read-only
// values: every request for one key and job ordering gets the same Ranks and
// Reqs arrays — a plan served under another policy that ranks the jobs alike
// too, behind a header of its own naming that policy — and a cache hit or
// coalesced request under one policy the very same *plan.Plan. Callers must
// not write to a served plan; Clone one to get a private copy.
func (pl *Planner) Plan(w *workflow.Workflow, cluster plan.Caps, pol priority.Policy) (*plan.Plan, error) {
	key := keyFor(w, variantTyped, cluster.Maps, cluster.Reduces, pl.margin)
	name := pol.Name()
	return pl.cache.serve(key, name, func() ([]int, error) { return plan.Rank(w, pol) },
		func(ranks []int) (*plan.Plan, error) {
			return plan.GenerateCappedTypedRanked(w, cluster, name, ranks, pl.margin)
		})
}

// PlanAll plans a batch of workflows against the same cluster, up to
// Config.Workers of them at once; each is planned as Plan plans it. The
// returned slice is index-aligned with flows. The first error aborts
// the batch (in-flight plans finish, remaining entries may be nil).
func (pl *Planner) PlanAll(flows []*workflow.Workflow, cluster plan.Caps, pol priority.Policy) ([]*plan.Plan, error) {
	out := make([]*plan.Plan, len(flows))
	errs := make([]error, len(flows))
	workers := pl.workers
	if workers > len(flows) {
		workers = len(flows)
	}
	if workers <= 1 {
		for i, w := range flows {
			p, err := pl.Plan(w, cluster, pol)
			if err != nil {
				return out, err
			}
			out[i] = p
		}
		return out, nil
	}
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(flows) {
					return
				}
				p, err := pl.Plan(flows[i], cluster, pol)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				out[i] = p
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
