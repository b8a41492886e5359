// Package priority implements the intra-workflow job prioritization
// algorithms evaluated in Section V-C of the WOHA paper. Each policy maps a
// workflow to a rank per job; WOHA's Scheduling Plan Generator (Algorithm 1)
// and Workflow Scheduler both consume these ranks when choosing among a
// workflow's active jobs.
package priority

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/workflow"
)

// Policy orders the jobs of a single workflow.
type Policy interface {
	// Name returns the short policy name used in experiment output
	// ("HLF", "LPF", "MPF").
	Name() string
	// Rank returns rank[j] for every job j, where a smaller rank means a
	// higher priority. Ranks form a permutation of 0..len(Jobs)-1. Ties in
	// the underlying key are broken by job ID, per the paper.
	Rank(w *workflow.Workflow) ([]int, error)
}

// HLF is Highest Level First: jobs with longer chains of dependents (higher
// levels) get higher priority, on the assumption that long sequences of
// successor jobs take long to finish.
type HLF struct{}

// Name implements Policy.
func (HLF) Name() string { return "HLF" }

// Rank implements Policy.
func (HLF) Rank(w *workflow.Workflow) ([]int, error) {
	c := w.Compiled()
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("priority: HLF: %w", err)
	}
	return ranksFromKeys(c.Levels), nil
}

// LPF is Longest Path First: like HLF but weighting each job on a path by its
// estimated length (one map time plus one reduce time), so a short chain of
// long jobs can outrank a long chain of short ones.
type LPF struct{}

// Name implements Policy.
func (LPF) Name() string { return "LPF" }

// Rank implements Policy.
func (LPF) Rank(w *workflow.Workflow) ([]int, error) {
	c := w.Compiled()
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("priority: LPF: %w", err)
	}
	return ranksFromKeys(c.LongestPaths), nil
}

// MPF is Maximum Parallelism First: the job with the most direct dependents
// gets the highest priority, maximizing the chance that the workflow has
// schedulable tasks whenever it holds the highest workflow priority.
type MPF struct{}

// Name implements Policy.
func (MPF) Name() string { return "MPF" }

// Rank implements Policy.
func (MPF) Rank(w *workflow.Workflow) ([]int, error) {
	c := w.Compiled()
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("priority: MPF: %w", err)
	}
	return ranksFromKeys(c.NumDependents), nil
}

// ranksFromKeys converts per-job keys (bigger = more important) into ranks
// (smaller = higher priority), breaking ties by job ID. It reads keys and
// leaves them alone: they are the workflow's shared compiled form.
func ranksFromKeys[K cmp.Ordered](keys []K) []int {
	ids := make([]int, len(keys))
	for i := range ids {
		ids[i] = i
	}
	slices.SortFunc(ids, func(a, b int) int {
		if c := cmp.Compare(keys[b], keys[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	ranks := make([]int, len(keys))
	for r, id := range ids {
		ranks[id] = r
	}
	return ranks
}

// All returns the three policies from the paper, in publication order.
func All() []Policy {
	return []Policy{HLF{}, LPF{}, MPF{}}
}

// ByName returns the policy with the given (case-sensitive) name.
func ByName(name string) (Policy, error) {
	for _, p := range All() {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("priority: unknown policy %q (want HLF, LPF, or MPF)", name)
}
