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
// The search only ever asks one question of a cap — does the makespan there
// meet the target? — so there is one simulator, the Kernel, built to answer
// exactly that. A kernel is bound once to a (workflow, ranks) pair (the
// dependent adjacency is the workflow's compiled one), every run takes a
// limit and stops at the first task batch that finishes past it, and a run
// records at most the raw requirement list, never a Plan. The cap search,
// Kernel.Search, answers a question from makespan bounds when they settle it
// and simulates the rest, and the winning cap once if a bound chose it. The
// capped generators run it recording, keep the raw list of the best cap so
// far in one buffer, and assemble a Plan once, for the cap that wins;
// Generate and GenerateTyped are "bind, run unlimited, assemble".
// Admission's feasibility stage runs the same search unrecorded, and callers
// that need makespans and no plan (deadline assignment) hold a Kernel
// themselves. Kernels are pooled with every buffer they use, so repeated
// probes allocate nothing. internal/planner builds on this with a structural
// plan cache that coalesces concurrent requests.
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
	// SearchIters counts the questions the cap search asked to produce this
	// plan: 1 for a direct Generate, 1 + the bisection's steps for the capped
	// generators, the whole-cluster question counted whether or not it was
	// simulated (the Fig 2 cost accounting). A plan served from a cache
	// reports 0. Diagnostic only; not part of the encoded plan.
	SearchIters int
	// ProbesCut counts the bisection steps answered "no" — the caps whose
	// makespan missed the search target, shown by a run stopped there or by
	// the lower bound. 0 for a direct Generate and for a plan served from a
	// cache. Diagnostic only; not part of the encoded plan.
	ProbesCut int
	// Simulations counts the Algorithm 1 runs actually executed: 1 for a
	// direct Generate, at most SearchIters for the capped generators, whose
	// search answers what it can from makespan bounds. 0 for a plan served
	// from a cache. Diagnostic only; not part of the encoded plan.
	Simulations int
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
		Simulations: 1,
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

// Rank ranks w's jobs with pol: the job ordering, the one thing of a policy
// besides its name that a generator reads.
func Rank(w *workflow.Workflow, pol priority.Policy) ([]int, error) {
	ranks, err := pol.Rank(w)
	if err != nil {
		return nil, fmt.Errorf("plan: ranking jobs: %w", err)
	}
	return ranks, nil
}

// GenerateForPolicy ranks w's jobs with pol and generates a plan at cap n.
func GenerateForPolicy(w *workflow.Workflow, n int, pol priority.Policy) (*Plan, error) {
	ranks, err := Rank(w, pol)
	if err != nil {
		return nil, err
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
	if clusterSlots <= 0 {
		return nil, fmt.Errorf("plan: cluster has %d slots, want > 0", clusterSlots)
	}
	ranks, err := Rank(w, pol)
	if err != nil {
		return nil, err
	}
	return generateCapped(w, pol.Name(), ranks, margin, Ladder{Lo: 1, Hi: clusterSlots})
}

// generateCapped is the cap search behind both capped generators: one kernel
// searches l recording, and only the schedule of the cap that wins is
// assembled.
func generateCapped(w *workflow.Workflow, policyName string, ranks []int, margin float64, l Ladder) (*Plan, error) {
	if margin <= 0 || margin > 1 {
		return nil, fmt.Errorf("plan: margin %v, want (0, 1]", margin)
	}
	k, err := Bind(w, ranks)
	if err != nil {
		return nil, err
	}
	defer k.Release()
	s, err := k.search(l, margin, w.RelativeDeadline(), true)
	if err != nil {
		return nil, err
	}
	p, err := assemble(w, policyName, ranks, s.Cap, s.Makespan, k.won)
	if err != nil {
		return nil, err
	}
	p.SearchIters = 1 + s.Questions
	p.ProbesCut = s.Cut
	p.Simulations = s.Simulations
	return p, nil
}

// runSingle simulates the bound workflow on n fungible slots: run with the
// reduces drawing on the map pool.
func (k *Kernel) runSingle(n int, limit simtime.Time, record bool) (simtime.Time, bool, error) {
	if n <= 0 {
		return 0, false, fmt.Errorf("plan: resource cap %d, want > 0", n)
	}
	return k.run([2]int{n, 0}, 0, limit, record)
}
