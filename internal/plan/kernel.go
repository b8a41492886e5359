package plan

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/simtime"
	"repro/internal/workflow"
)

// Unlimited is the limit of a run that must go to completion.
const Unlimited = time.Duration(math.MaxInt64)

// Kernel is Algorithm 1 bound to one (workflow, job ordering) pair: the one
// simulator behind every generator in this package and behind every caller
// that only needs a makespan (admission's feasibility stage, deadline
// assignment). What depends on the workflow alone — the dependent adjacency,
// the task total, which pools it needs — is read from the workflow's compiled
// form, so binding derives nothing; each Makespan/MakespanTyped call is then
// one simulation that records nothing and allocates nothing once the kernel's
// buffers are warm.
//
// A run takes a limit and stops at the first task batch whose finish passes
// it. The simulated end is the maximum over batch finishes and only grows, so
// "a batch finished past limit" is exactly "makespan > limit": stopping there
// changes no answer, it only skips the rest of a simulation whose verdict is
// already known.
//
// A Kernel is not safe for concurrent use; concurrent probes of one workflow
// bind one kernel each. The workflow and ranks must not change between Bind
// and Release.
type Kernel struct {
	w     *workflow.Workflow
	c     *workflow.Compiled // w.Compiled()
	ranks []int

	// Per-run state shared by both simulators.
	remMaps, remReds []int
	unmet            []int
	raw              []rawReq

	// Single-pool simulator (runSingle).
	heap   activeHeap
	events simtime.Queue[genEvent]
	batch  []genEvent

	// Typed simulator (runTyped). active holds ready jobs sorted by
	// ascending rank (ranks are a permutation, so the order is total and
	// deterministic).
	active  []workflow.JobID
	tevents simtime.Queue[typedEvent]
	tbatch  []typedEvent
}

var kernelPool = sync.Pool{New: func() any { return new(Kernel) }}

// Bind draws a kernel from the pool and binds it to w under ranks (smaller
// rank = higher priority, a permutation as produced by a priority.Policy).
// Release it when done.
func Bind(w *workflow.Workflow, ranks []int) (*Kernel, error) {
	k := kernelPool.Get().(*Kernel)
	if err := k.bind(w, ranks); err != nil {
		kernelPool.Put(k)
		return nil, err
	}
	return k, nil
}

// bind is Bind on an explicit kernel, so tests and benchmarks can compare
// pooled against freshly allocated state.
func (k *Kernel) bind(w *workflow.Workflow, ranks []int) error {
	if len(ranks) != len(w.Jobs) {
		return fmt.Errorf("plan: %d ranks for %d jobs", len(ranks), len(w.Jobs))
	}
	k.w, k.c, k.ranks = w, w.Compiled(), ranks
	return nil
}

// Release returns the kernel to the pool. It drops the workflow and ranks
// references so an idle pooled kernel pins neither.
func (k *Kernel) Release() {
	k.w, k.c, k.ranks = nil, nil, nil
	kernelPool.Put(k)
}

// Makespan simulates the bound workflow alone on n fungible slots. It
// returns the makespan and true when that is at most limit; otherwise it
// stops at the first batch finishing past limit and returns that finish — a
// lower bound on the makespan — and false.
func (k *Kernel) Makespan(n int, limit time.Duration) (time.Duration, bool, error) {
	end, within, err := k.runSingle(n, simtime.Epoch.Add(limit), false)
	return end.Duration(), within, err
}

// MakespanTyped is Makespan with separate map and reduce slot pools.
func (k *Kernel) MakespanTyped(caps Caps, limit time.Duration) (time.Duration, bool, error) {
	end, within, err := k.runTyped(caps, simtime.Epoch.Add(limit), false)
	return end.Duration(), within, err
}

// start resets the per-run state both simulators share.
func (k *Kernel) start() {
	nj := len(k.w.Jobs)
	k.remMaps = resize(k.remMaps, nj)
	k.remReds = resize(k.remReds, nj)
	k.unmet = resize(k.unmet, nj)
	k.raw = k.raw[:0]
	for i := range k.w.Jobs {
		j := &k.w.Jobs[i]
		k.remMaps[i] = j.Maps
		k.remReds[i] = j.Reduces
		k.unmet[i] = len(j.Prereqs)
	}
}

// unfinished is the error of a run that went to completion with tasks left
// over. With the pools checked up front only a workflow that is not a DAG
// gets here.
func (k *Kernel) unfinished() error {
	i := 0
	for i < len(k.w.Jobs)-1 && k.remMaps[i] == 0 && k.remReds[i] == 0 {
		i++
	}
	return fmt.Errorf("plan: job %q never fully scheduled (internal error: unmet prerequisites)", k.w.Jobs[i].Name)
}

// Schedule is what one recorded run leaves behind: the raw requirement list
// (when each task batch was scheduled) and the makespan. It is the hand-off
// between a probe and the cap search — a probe that meets the target swaps
// its list into the search's Schedule — and assemble turns the one that wins
// into the Plan. Opaque outside this package; the zero value is ready to use.
type Schedule struct {
	raw      []rawReq
	makespan time.Duration
}

type rawReq struct {
	at    simtime.Time
	count int
}

// cappedSearch is the state of one capped generation: the kernels bound to
// its workflow (one, unless a concurrent searcher overlaps probes), the
// schedule of the best cap so far, and the cut count. Pooled, so the
// schedule buffer, the idle list and the probe closure are reused.
type cappedSearch struct {
	w       *workflow.Workflow
	ranks   []int
	typed   bool
	cluster Caps // typed only: the pools a total cap is sliced from
	target  time.Duration
	// atTarget is s.probeAtTarget, built once per pooled object.
	atTarget Probe
	best     Schedule

	mu   sync.Mutex
	idle []*Kernel
	cut  int
}

var searchPool = sync.Pool{New: func() any {
	s := new(cappedSearch)
	s.atTarget = s.probeAtTarget
	return s
}}

// release unbinds every kernel and returns s to the pool.
func (s *cappedSearch) release() {
	for i, k := range s.idle {
		k.Release()
		s.idle[i] = nil
	}
	s.idle = s.idle[:0]
	s.w, s.ranks, s.cut = nil, nil, 0
	searchPool.Put(s)
}

func (s *cappedSearch) probeAtTarget(cap int, keep *Schedule) (bool, error) {
	return s.probe(cap, s.target, keep)
}

// probe runs one recorded simulation at total cap, stopping at limit. When
// the makespan is within limit the run's schedule is swapped into keep.
// Safe for concurrent use: overlapping probes run on separate kernels.
func (s *cappedSearch) probe(cap int, limit time.Duration, keep *Schedule) (bool, error) {
	s.mu.Lock()
	var k *Kernel
	if n := len(s.idle); n > 0 {
		k, s.idle = s.idle[n-1], s.idle[:n-1]
	}
	s.mu.Unlock()
	if k == nil {
		var err error
		if k, err = Bind(s.w, s.ranks); err != nil {
			return false, err
		}
	}
	var end simtime.Time
	var within bool
	var err error
	if s.typed {
		end, within, err = k.runTyped(TypedCapsFor(s.cluster, cap), simtime.Epoch.Add(limit), true)
	} else {
		end, within, err = k.runSingle(cap, simtime.Epoch.Add(limit), true)
	}
	if err == nil && within {
		k.raw, keep.raw = keep.raw, k.raw
		keep.makespan = end.Duration()
	}
	s.mu.Lock()
	s.idle = append(s.idle, k)
	if err == nil && !within {
		s.cut++
	}
	s.mu.Unlock()
	return within, err
}

// resize returns s with length n, reusing its backing array when possible.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
