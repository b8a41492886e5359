// Package plan implements WOHA's client-side Scheduling Plan Generator
// (Section IV-A of the paper).
//
// A scheduling plan carries two things from the client to the JobTracker:
//
//   - a static intra-workflow job ordering (from a priority.Policy), and
//   - the progress requirement list F_i produced by Algorithm 1
//     ("GenerateReqs"): entries (ttd, req) meaning "by the time ttd remains
//     until the deadline, req tasks of this workflow must have been
//     scheduled".
//
// Algorithm 1 simulates the workflow alone on n slots under the given job
// ordering. The paper's pseudocode omits how slots return to the pool; we
// complete it faithfully to the model it describes: every scheduled batch of
// k map (reduce) tasks frees k slots when the batch finishes at t+M (t+R),
// a job's reduce phase activates when its last map batch finishes, and its
// dependents activate when the last reduce batch finishes.
//
// Because a plan generated against the whole cluster is too optimistic when
// other workflows compete for slots (Fig 2), GenerateCapped binary-searches
// the smallest resource cap under which the simulated makespan still meets
// the deadline and builds the plan at that cap.
//
// The search only ever asks a probe one question — does the makespan at this
// cap meet the target? — so there is one simulator, the Kernel, built to
// answer exactly that. A kernel is bound once to a (workflow, ranks) pair
// (the dependent adjacency is the workflow's compiled one), every run takes
// a limit and stops at the first task batch that finishes past it, and a run
// records at most the raw requirement list, never a Plan. The capped
// generators bind one kernel per search, keep the raw list of the best cap so
// far in one buffer, and assemble a Plan once, for the cap that wins; Generate
// and GenerateTyped are "bind, run unlimited, assemble". Callers that need
// makespans and no plan (admission's feasibility stage, deadline assignment)
// hold a Kernel themselves. Kernels are pooled with every buffer they use, so
// repeated probes allocate nothing. internal/planner builds on this with
// concurrent probing and a structural plan cache.
package plan

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/priority"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// Req is one progress requirement: by TTD before the workflow's deadline,
// Cum tasks must have been scheduled. Requirements are cumulative and a
// plan's Reqs are sorted by decreasing TTD (i.e. chronologically).
type Req struct {
	TTD time.Duration
	Cum int
}

// Plan is a workflow scheduling plan. A plan is a read-only value once it
// leaves its generator: schedulers, admission and the trackers only read it,
// and a plan served by a planner.Planner shares its Ranks and Reqs with every
// other request for the same key, so it must never be written. Clone first.
type Plan struct {
	// Policy is the name of the intra-workflow priority policy the plan
	// was generated with.
	Policy string
	// Ranks holds the job ordering: Ranks[j] is job j's rank, smaller
	// means higher priority.
	Ranks []int
	// Reqs is the progress requirement list F_i, sorted by decreasing TTD.
	Reqs []Req
	// Cap is the resource cap (slot count) the plan was simulated with.
	Cap int
	// Makespan is the simulated completion time of the workflow running
	// alone on Cap slots.
	Makespan time.Duration
	// Feasible reports whether Makespan fits within the workflow's
	// relative deadline. An infeasible plan is still usable — the
	// scheduler follows it best-effort.
	Feasible bool
	// TotalTasks is the workflow's task count; equals the last Req's Cum.
	TotalTasks int
	// SearchIters counts the Algorithm 1 simulations run to produce this
	// plan: 1 for a direct Generate, 1 + the probe count for the capped
	// generators (speculative parallel probes included, so the Fig 2 cost
	// accounting holds however the search was executed). A plan served
	// from a cache reports 0. Diagnostic only; not part of the encoded
	// plan.
	SearchIters int
	// ProbesCut counts how many of those simulations stopped at the search
	// target instead of running to completion — the probes whose makespan
	// missed it. 0 for a direct Generate and for a plan served from a cache.
	// Diagnostic only; not part of the encoded plan.
	ProbesCut int
}

// RequiredAt returns F(ttd): the number of tasks that must have been
// scheduled when ttd remains until the deadline. Larger ttd (more time left)
// means fewer tasks required; ttd at or below the last entry requires all
// tasks.
func (p *Plan) RequiredAt(ttd time.Duration) int {
	// Reqs is sorted by decreasing TTD. Find the last entry whose TTD is
	// >= ttd; its Cum is in force.
	i := sort.Search(len(p.Reqs), func(i int) bool { return p.Reqs[i].TTD < ttd })
	// Entries [0, i) have TTD >= ttd.
	if i == 0 {
		return 0
	}
	return p.Reqs[i-1].Cum
}

// Clone returns a deep copy of p, for a caller that wants a plan it may
// write: one served by a planner.Planner is shared.
func (p *Plan) Clone() *Plan {
	c := *p
	c.Ranks = append([]int(nil), p.Ranks...)
	c.Reqs = append([]Req(nil), p.Reqs...)
	return &c
}

// Generate runs Algorithm 1: it simulates w executing alone on n slots with
// jobs prioritized by ranks (smaller rank = higher priority) and returns the
// resulting plan. ranks must be a permutation as produced by a
// priority.Policy. Generate is safe for concurrent use; simulator state is
// drawn from an internal pool.
func Generate(w *workflow.Workflow, n int, policyName string, ranks []int) (*Plan, error) {
	k, err := Bind(w, ranks)
	if err != nil {
		return nil, err
	}
	defer k.Release()
	return k.generate(n, policyName)
}

// generateWith is Generate on an explicit kernel, so tests and benchmarks can
// compare pooled against freshly allocated state.
func generateWith(k *Kernel, w *workflow.Workflow, n int, policyName string, ranks []int) (*Plan, error) {
	if err := k.bind(w, ranks); err != nil {
		return nil, err
	}
	return k.generate(n, policyName)
}

// generate is one recorded, unlimited single-pool run assembled into a plan.
func (k *Kernel) generate(n int, policyName string) (*Plan, error) {
	end, _, err := k.runSingle(n, simtime.MaxTime, true)
	if err != nil {
		return nil, err
	}
	return assemble(k.w, policyName, k.ranks, n, end.Duration(), k.raw)
}

// assemble translates a simulation's raw scheduling events into a Plan:
// event occurrence times become time-to-deadline and the requirement counts
// become cumulative (Algorithm 1, lines 37-39). It runs once per plan
// returned, never per probe.
func assemble(w *workflow.Workflow, policyName string, ranks []int, totalCap int, makespan time.Duration, raw []rawReq) (*Plan, error) {
	// raw is chronological, so F_i has one entry per distinct instant.
	entries := 0
	for i, r := range raw {
		if i == 0 || r.at != raw[i-1].at {
			entries++
		}
	}
	p := &Plan{
		Policy:      policyName,
		Ranks:       append([]int(nil), ranks...),
		Reqs:        make([]Req, 0, entries),
		Cap:         totalCap,
		Makespan:    makespan,
		Feasible:    makespan <= w.RelativeDeadline(),
		TotalTasks:  w.TotalTasks(),
		SearchIters: 1,
	}
	cum := 0
	for _, r := range raw {
		cum += r.count
		ttd := makespan - r.at.Duration()
		if k := len(p.Reqs); k > 0 && p.Reqs[k-1].TTD == ttd {
			p.Reqs[k-1].Cum = cum
		} else {
			p.Reqs = append(p.Reqs, Req{TTD: ttd, Cum: cum})
		}
	}
	if cum != p.TotalTasks {
		return nil, fmt.Errorf("plan: simulation scheduled %d tasks, workflow has %d", cum, p.TotalTasks)
	}
	return p, nil
}

// GenerateForPolicy ranks w's jobs with pol and generates a plan at cap n.
func GenerateForPolicy(w *workflow.Workflow, n int, pol priority.Policy) (*Plan, error) {
	ranks, err := pol.Rank(w)
	if err != nil {
		return nil, fmt.Errorf("plan: ranking jobs: %w", err)
	}
	return Generate(w, n, pol.Name(), ranks)
}

// GenerateCapped finds, by binary search, the minimum resource cap in
// [1, clusterSlots] whose simulated makespan meets the workflow's relative
// deadline, and returns the plan generated at that cap (Section IV-A, "An
// improvement"). If even the full cluster cannot meet the deadline the plan
// for clusterSlots is returned with Feasible == false.
func GenerateCapped(w *workflow.Workflow, clusterSlots int, pol priority.Policy) (*Plan, error) {
	return GenerateCappedMargin(w, clusterSlots, pol, 1.0)
}

// GenerateCappedMargin is GenerateCapped with a safety margin: the binary
// search targets margin * relative-deadline instead of the full deadline, so
// the plan keeps (1-margin) of the deadline in reserve. Algorithm 1's
// single-pool slot model is optimistic about a real cluster's typed map and
// reduce slots, and the minimum cap leaves a plan with zero slack; a margin
// below 1 absorbs both effects. margin must be in (0, 1]. The experiments
// use 0.85.
func GenerateCappedMargin(w *workflow.Workflow, clusterSlots int, pol priority.Policy, margin float64) (*Plan, error) {
	return GenerateCappedMarginWith(w, clusterSlots, pol, margin, nil)
}

// GenerateCappedMarginWith is GenerateCappedMargin with an explicit cap
// searcher; a nil search uses SequentialSearch. Any conforming searcher (see
// CapSearcher) yields a byte-identical plan, so internal/planner can probe
// caps concurrently without changing results.
func GenerateCappedMarginWith(w *workflow.Workflow, clusterSlots int, pol priority.Policy, margin float64, search CapSearcher) (*Plan, error) {
	if clusterSlots <= 0 {
		return nil, fmt.Errorf("plan: cluster has %d slots, want > 0", clusterSlots)
	}
	return generateCapped(w, pol, margin, search, false, Caps{}, 1, clusterSlots)
}

// generateCapped is the cap search behind both capped generators: total caps
// in [lo, hi] are probed on one bound kernel (typed caps are the proportional
// slice of cluster), every probe below hi stops at the target, and only the
// schedule that wins is assembled.
func generateCapped(w *workflow.Workflow, pol priority.Policy, margin float64, search CapSearcher, typed bool, cluster Caps, lo, hi int) (*Plan, error) {
	if margin <= 0 || margin > 1 {
		return nil, fmt.Errorf("plan: margin %v, want (0, 1]", margin)
	}
	ranks, err := pol.Rank(w)
	if err != nil {
		return nil, fmt.Errorf("plan: ranking jobs: %w", err)
	}
	s := searchPool.Get().(*cappedSearch)
	defer s.release()
	s.w, s.ranks, s.typed, s.cluster = w, ranks, typed, cluster

	// The whole cluster first, to completion: its makespan picks the target
	// and its schedule is the plan when no smaller cap meets it.
	if _, err := s.probe(hi, Unlimited, &s.best); err != nil {
		return nil, err
	}
	deadline := w.RelativeDeadline()
	s.target = time.Duration(margin * float64(deadline))
	cap, probes := hi, 0
	// A whole cluster that misses the margin target retries against the real
	// deadline: a plan capped for the actual deadline demands far less than
	// the full-cluster plan and keeps the workflow from poisoning the
	// priority queue with an unearned maximal lag. Only a genuinely
	// infeasible workflow keeps the best-effort full plan.
	if full := s.best.makespan; full <= deadline {
		if full > s.target {
			s.target = deadline
		}
		if search == nil {
			search = SequentialSearch
		}
		best, n, err := search(lo, hi, s.atTarget, &s.best)
		if err != nil {
			return nil, err
		}
		if best != 0 {
			cap = best
		}
		probes = n
	}
	p, err := assemble(w, pol.Name(), ranks, cap, s.best.makespan, s.best.raw)
	if err != nil {
		return nil, err
	}
	p.SearchIters = 1 + probes
	p.ProbesCut = s.cut
	return p, nil
}

// genEvent is a FREE or ADD event from Algorithm 1. slots > 0 frees slots;
// activate re-queues a job for its reduce phase or, for completions,
// activates dependents.
type genEvent struct {
	// slots freed at this instant (FREE event), if any.
	slots int
	// reduceOf, when >= 0, re-adds that job to the active set for its
	// reduce phase (the ADD event of Algorithm 1 line 21).
	reduceOf workflow.JobID
	// completed, when >= 0, marks that job finished, activating dependents
	// whose prerequisites are all done (line 29-31).
	completed workflow.JobID
}

// runSingle simulates the bound workflow on n fungible slots. It returns the
// makespan and true, or — stopping there — the first batch finish past limit
// and false. With record set the raw requirement list is left in k.raw.
func (k *Kernel) runSingle(n int, limit simtime.Time, record bool) (simtime.Time, bool, error) {
	if n <= 0 {
		return 0, false, fmt.Errorf("plan: resource cap %d, want > 0", n)
	}
	k.start()
	k.heap.items = k.heap.items[:0]
	k.events.Reset()
	// Roots activate in job-ID order, as Workflow.Roots reports them.
	for i := range k.w.Jobs {
		if k.unmet[i] == 0 {
			k.activateSingle(workflow.JobID(i))
		}
	}
	k.events.Push(simtime.Epoch, genEvent{slots: n, reduceOf: -1, completed: -1})

	free, left := 0, k.c.TotalTasks
	var end simtime.Time
	for k.events.Len() > 0 {
		// Batch all events sharing this instant before scheduling, so a
		// free-up and an activation at the same time are seen together
		// (applying never pushes, so the batch is the complete instant).
		k.batch = k.batch[:0]
		t, _ := k.events.DrainInstant(&k.batch)
		for _, e := range k.batch {
			free += e.slots
			if e.reduceOf >= 0 {
				// Reduce phase of e.reduceOf becomes schedulable.
				k.activateSingle(e.reduceOf)
			}
			if e.completed >= 0 {
				for _, d := range k.c.DependentsOf(e.completed) {
					k.unmet[d]--
					if k.unmet[d] == 0 {
						k.activateSingle(d)
					}
				}
			}
		}
		// Work-conserving scheduling at time t (Algorithm 1 lines 14-35,
		// looped while slots and active jobs remain).
		for free > 0 && k.heap.len() > 0 {
			j := k.heap.peek()
			job := &k.w.Jobs[j]
			rem, dur := &k.remMaps[j], job.MapTime
			inMaps := *rem > 0
			if !inMaps {
				rem, dur = &k.remReds[j], job.ReduceTime
			}
			n := min(*rem, free)
			done := t.Add(dur)
			if done > limit {
				return done, false, nil
			}
			if record {
				k.raw = append(k.raw, rawReq{at: t, count: n})
			}
			free -= n
			left -= n
			*rem -= n
			// PushOrdered: see runTyped.
			k.events.PushOrdered(done, genEvent{slots: n, reduceOf: -1, completed: -1})
			end = simtime.MaxOf(end, done)
			if *rem == 0 {
				k.heap.pop()
				if inMaps && k.remReds[j] > 0 {
					k.events.PushOrdered(done, genEvent{slots: 0, reduceOf: j, completed: -1})
				} else {
					k.events.PushOrdered(done, genEvent{slots: 0, reduceOf: -1, completed: j})
				}
			}
		}
	}
	if left != 0 {
		return 0, false, k.unfinished()
	}
	return end, true, nil
}

func (k *Kernel) activateSingle(j workflow.JobID) {
	k.heap.push(activeJob{id: j, rank: k.ranks[j]})
}

// activeJob is an entry in the active-job heap, ordered by rank.
type activeJob struct {
	id   workflow.JobID
	rank int
}

// activeHeap is a small binary min-heap over job rank. Implemented by hand
// (rather than container/heap) to avoid interface boxing in the hot loop.
type activeHeap struct {
	items []activeJob
}

func (h *activeHeap) len() int { return len(h.items) }

func (h *activeHeap) peek() workflow.JobID { return h.items[0].id }

func (h *activeHeap) push(j activeJob) {
	h.items = append(h.items, j)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].rank <= h.items[i].rank {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *activeHeap) pop() activeJob {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && h.items[l].rank < h.items[smallest].rank {
			smallest = l
		}
		if r < last && h.items[r].rank < h.items[smallest].rank {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
	return top
}
