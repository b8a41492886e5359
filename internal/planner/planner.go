// Package planner is the plan-generation service sitting between workflow
// admission and the Algorithm 1 generators in internal/plan. It adds three
// throughput layers on top of the seed generators without changing a single
// plan byte:
//
//   - speculative parallel cap search (see newParallelSearch), which spends
//     idle cores on the bisection caps the sequential search might probe
//     next, so a single admission's wall clock shrinks on multi-core hosts;
//   - a structural LRU plan cache (see planCache), which recognizes that
//     production workloads are template-heavy — recurring instances and
//     renamed copies of the same DAG shape compare equal as keys — and
//     serves repeat requests without simulating, hashing or copying;
//   - singleflight request coalescing (see flightGroup), which lets one
//     Planner be shared by many concurrent clients — runner cells, sessions
//     — with each distinct structural key simulated exactly once: the first
//     requester generates, concurrent same-key requesters block on that
//     generation and receive its plan.
//
// Both layers are observable through obs.PlannerStats and both are exact:
// a plan served by the planner is byte-identical (per plan.Encode) to the
// one the seed plan.GenerateCapped* call would build, which the
// determinism tests in this package pin down.
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
// sequential search, no cache, default margin, no instrumentation.
type Config struct {
	// Workers is the number of concurrent Algorithm 1 probes a single cap
	// search may run, and the concurrency of PlanAll across workflows.
	// Values <= 1 mean fully sequential; callers wanting one worker per
	// core pass runtime.GOMAXPROCS(0).
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
// concurrent clients (runner cells, sessions) coalesces same-key requests
// so each distinct structural key is simulated exactly once (see
// flightGroup).
type Planner struct {
	workers int
	margin  float64
	cache   *planCache
	flight  flightGroup
	stats   *obs.PlannerStats
	search  plan.CapSearcher // nil selects plan.SequentialSearch
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
	p.flight.calls = make(map[cacheKey]*flightCall)
	p.stats = cfg.Obs.NewPlannerStats()
	p.cache = newPlanCache(cfg.CacheSize, p.stats)
	if p.workers > 1 {
		p.search = newParallelSearch(p.workers, p.stats)
	}
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
// Plans served by a Planner (here and by PlanSingle, Estimate and PlanAll) are
// shared read-only values: every request for one key gets the same Ranks and
// Reqs arrays, and a cache hit or coalesced request the very same *plan.Plan.
// Callers must not write to a served plan; Clone one to get a private copy.
func (pl *Planner) Plan(w *workflow.Workflow, cluster plan.Caps, pol priority.Policy) (*plan.Plan, error) {
	return pl.planTyped(w, cluster, pol, pl.search)
}

// planTyped implements Plan with an explicit searcher so PlanAll can force
// sequential searches while it parallelizes across workflows instead.
func (pl *Planner) planTyped(w *workflow.Workflow, cluster plan.Caps, pol priority.Policy, search plan.CapSearcher) (*plan.Plan, error) {
	key := keyFor(w, variantTyped, cluster.Maps, cluster.Reduces, pl.margin, pol.Name())
	return pl.serve(key, func() (*plan.Plan, error) {
		return plan.GenerateCappedTypedWith(w, cluster, pol, pl.margin, search)
	})
}

// PlanSingle produces the single-pool capped plan for w on clusterSlots
// fungible slots — the planner-service equivalent of
// plan.GenerateCappedMargin at the configured margin.
func (pl *Planner) PlanSingle(w *workflow.Workflow, clusterSlots int, pol priority.Policy) (*plan.Plan, error) {
	key := keyFor(w, variantSingle, clusterSlots, 0, pl.margin, pol.Name())
	return pl.serve(key, func() (*plan.Plan, error) {
		return plan.GenerateCappedMarginWith(w, clusterSlots, pol, pl.margin, pl.search)
	})
}

// Estimate produces the uncapped plan for w at a fixed slot count — the
// cached equivalent of plan.GenerateForPolicy, used by workload generators
// to derive deadlines from estimated makespans. No cap search runs, so
// only the cache layer applies.
func (pl *Planner) Estimate(w *workflow.Workflow, slots int, pol priority.Policy) (*plan.Plan, error) {
	key := keyFor(w, variantUncapped, slots, 0, 1, pol.Name())
	return pl.serve(key, func() (*plan.Plan, error) {
		return plan.GenerateForPolicy(w, slots, pol)
	})
}

// PlanAll plans a batch of workflows against the same cluster, spreading
// whole workflows across the planner's workers; each workflow's own cap
// search runs sequentially, since the batch already saturates the cores.
// The returned slice is index-aligned with flows. The first error aborts
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
			p, err := pl.planTyped(w, cluster, pol, pl.search)
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
				p, err := pl.planTyped(flows[i], cluster, pol, nil)
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
