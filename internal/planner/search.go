package planner

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/plan"
)

// newParallelSearch returns a plan.CapSearcher that runs probes on up to
// workers goroutines while settling exactly the cap plan.SequentialSearch
// settles, so the plans assembled from it are byte-identical.
//
// Bisection cannot simply be parallelized by probing a ladder of caps and
// picking the cheapest feasible one: list scheduling makes makespan
// non-monotone in the cap (Graham's anomalies), so any search that narrows
// differently from the sequential bisection can settle on a different cap.
// Instead the searcher is speculative. The caps the sequential search could
// probe next form the frontier of a binary tree over [lo, hi]: the current
// mid, then the two mids the success/failure branches would visit, and so
// on. Each round probes one frontier (breadth-first, real mid first)
// concurrently and memoizes the answers; the sequential walk then advances
// over memoized answers only, so every narrowing decision is exactly the
// sequential one. What is memoized is a probe's outcome — within the target
// or not — and, for a probe that was, the raw schedule of its run (a probe
// that missed stopped at the target and has none): the walk keeps the
// schedule of its current best and hands the rest back for reuse, so the
// search holds a few raw lists, never a plan. Half of each speculative level
// is off the true path — that waste is the price of parallel wall-clock
// speedup, and it is kept honest in the accounting: every simulation
// actually executed counts toward probes (and Plan.SearchIters), while
// probes skipped because the interval narrowed past them count as
// cancellations in stats.
//
// Errors follow the CapSearcher contract: a probe error at a cap the
// sequential walk reaches aborts the search; errors at speculative caps the
// walk never visits are discarded.
func newParallelSearch(workers int, stats *obs.PlannerStats) plan.CapSearcher {
	return func(lo, hi int, probe plan.Probe, into *plan.Schedule) (int, int, error) {
		s := &specSearch{lo: lo, hi: hi, memo: make(map[int]specResult)}
		// Speculate one bisection level per worker-doubling: depth d covers
		// up to 2^d - 1 caps, enough to keep every worker busy each round.
		depth := 1
		for (1<<depth)-1 < workers && depth < 10 {
			depth++
		}
		for {
			s.mu.Lock()
			if s.err != nil || s.lo >= s.hi {
				best, sched, probes, cancelled, err := s.best, s.bestSched, s.executed, s.cancelled, s.err
				s.mu.Unlock()
				if err != nil {
					return 0, probes, err
				}
				if stats != nil {
					stats.ProbesCancelled.Add(int64(cancelled))
				}
				if sched != nil && into != nil {
					*into, *sched = *sched, *into
				}
				return best, probes, nil
			}
			caps := frontier(s.lo, s.hi, depth, s.memo)
			s.mu.Unlock()
			s.runRound(caps, workers, probe)
		}
	}
}

type specSearch struct {
	mu     sync.Mutex
	lo, hi int
	// best is the cap the walk has settled on so far (0: none yet) and
	// bestSched the schedule its probe recorded.
	best      int
	bestSched *plan.Schedule
	memo      map[int]specResult
	// spare holds schedules no longer needed — a superseded best, a probe
	// that missed the target — for the next probe to record into.
	spare     []*plan.Schedule
	executed  int
	cancelled int
	err       error
}

// specResult is one memoized probe: its answer and, when within, the
// schedule it recorded.
type specResult struct {
	within bool
	sched  *plan.Schedule
	err    error
}

// frontier lists the caps the sequential bisection of [lo, hi) could probe
// within the next depth levels, breadth-first so the guaranteed-needed
// current mid comes first. Intervals on one level are pairwise disjoint, so
// the caps are distinct; already-memoized caps are skipped.
func frontier(lo, hi, depth int, memo map[int]specResult) []int {
	caps := make([]int, 0, (1<<depth)-1)
	level := [][2]int{{lo, hi}}
	for d := 0; d < depth && len(level) > 0; d++ {
		next := make([][2]int, 0, 2*len(level))
		for _, iv := range level {
			l, h := iv[0], iv[1]
			if l >= h {
				continue
			}
			mid := l + (h-l)/2
			if _, ok := memo[mid]; !ok {
				caps = append(caps, mid)
			}
			// Success branch keeps [l, mid]; failure branch moves to [mid+1, h].
			next = append(next, [2]int{l, mid}, [2]int{mid + 1, h})
		}
		level = next
	}
	return caps
}

// runRound probes the frontier caps on up to workers goroutines. A cap that
// has fallen outside the narrowed interval by the time a worker picks it up
// is skipped as cancelled. The round's results land in the memo and the
// sequential walk advances as they do; the frontier always contains the
// walk's current mid, so every round makes progress.
func (s *specSearch) runRound(caps []int, workers int, probe plan.Probe) {
	if len(caps) == 0 {
		// Everything in range was memoized (stale results from before a
		// narrowing); advance consumes them.
		s.mu.Lock()
		s.advanceLocked()
		s.mu.Unlock()
		return
	}
	if workers > len(caps) {
		workers = len(caps)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(caps) {
					return
				}
				cap := caps[i]
				s.mu.Lock()
				if s.err != nil || s.lo >= s.hi || cap < s.lo || cap > s.hi {
					s.cancelled++
					s.mu.Unlock()
					continue
				}
				s.executed++
				sched := s.spareLocked()
				s.mu.Unlock()
				within, err := probe(cap, sched)
				s.mu.Lock()
				if err != nil || !within {
					s.spare = append(s.spare, sched)
					sched = nil
				}
				s.memo[cap] = specResult{within: within, sched: sched, err: err}
				s.advanceLocked()
				s.mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// spareLocked hands out a schedule for a probe to record into. Called with
// s.mu held.
func (s *specSearch) spareLocked() *plan.Schedule {
	if n := len(s.spare); n > 0 {
		sched := s.spare[n-1]
		s.spare = s.spare[:n-1]
		return sched
	}
	return new(plan.Schedule)
}

// advanceLocked replays the sequential bisection over memoized results for
// as far as they reach. Called with s.mu held.
func (s *specSearch) advanceLocked() {
	for s.err == nil && s.lo < s.hi {
		mid := s.lo + (s.hi-s.lo)/2
		res, ok := s.memo[mid]
		if !ok {
			return
		}
		if res.err != nil {
			s.err = res.err
			return
		}
		if res.within {
			if s.bestSched != nil {
				s.spare = append(s.spare, s.bestSched)
			}
			s.best, s.bestSched, s.hi = mid, res.sched, mid
		} else {
			s.lo = mid + 1
		}
	}
}
