// Package oracle is test support: the slow, obvious implementations that the
// production code replaced, kept so tests can demand the same answers from
// what replaced them — the per-call DAG derivations behind workflow.Compiled,
// the float-keyed stable-sort ranking, the sha256 walk behind the planner's
// struct key, and the cap bisection over full plans behind plan.Kernel's
// limited probes — plus the random DAG generator those tests share. Nothing
// outside _test files imports it.
package oracle

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/simtime"
	"repro/internal/workflow"
)

// Dependents returns, for each job, the IDs of jobs that list it as a
// prerequisite (the set D_i^j from Section IV-A).
func Dependents(w *workflow.Workflow) [][]workflow.JobID {
	deps := make([][]workflow.JobID, len(w.Jobs))
	for i := range w.Jobs {
		for _, p := range w.Jobs[i].Prereqs {
			deps[p] = append(deps[p], workflow.JobID(i))
		}
	}
	return deps
}

// TopoOrder is deterministic Kahn: rescan from job 0 for the lowest-ID ready
// job at every step.
func TopoOrder(w *workflow.Workflow) ([]workflow.JobID, error) {
	n := len(w.Jobs)
	indeg := make([]int, n)
	for i := range w.Jobs {
		indeg[i] = len(w.Jobs[i].Prereqs)
	}
	deps := Dependents(w)
	order := make([]workflow.JobID, 0, n)
	done := make([]bool, n)
	for len(order) < n {
		found := false
		for i := 0; i < n; i++ {
			if !done[i] && indeg[i] == 0 {
				done[i] = true
				order = append(order, workflow.JobID(i))
				for _, d := range deps[i] {
					indeg[d]--
				}
				found = true
				break
			}
		}
		if !found {
			return nil, workflow.ErrCycle
		}
	}
	return order, nil
}

// Levels computes the HLF level of every job.
func Levels(w *workflow.Workflow) ([]int, error) {
	order, err := TopoOrder(w)
	if err != nil {
		return nil, err
	}
	deps := Dependents(w)
	levels := make([]int, len(w.Jobs))
	for i := len(order) - 1; i >= 0; i-- {
		j := order[i]
		lvl := 0
		for _, d := range deps[j] {
			if levels[d]+1 > lvl {
				lvl = levels[d] + 1
			}
		}
		levels[j] = lvl
	}
	return levels, nil
}

// LongestPaths computes the LPF key of every job.
func LongestPaths(w *workflow.Workflow) ([]time.Duration, error) {
	order, err := TopoOrder(w)
	if err != nil {
		return nil, err
	}
	deps := Dependents(w)
	paths := make([]time.Duration, len(w.Jobs))
	for i := len(order) - 1; i >= 0; i-- {
		j := order[i]
		var best time.Duration
		for _, d := range deps[j] {
			if paths[d] > best {
				best = paths[d]
			}
		}
		paths[j] = best + w.Jobs[j].Length()
	}
	return paths, nil
}

// Ranks ranks w's jobs under the named policy (HLF, LPF, MPF) the way
// internal/priority used to: float64 keys, stable sort, ties by job ID.
func Ranks(w *workflow.Workflow, policy string) ([]int, error) {
	keys := make([]float64, len(w.Jobs))
	switch policy {
	case "HLF":
		levels, err := Levels(w)
		if err != nil {
			return nil, err
		}
		for i, l := range levels {
			keys[i] = float64(l)
		}
	case "LPF":
		paths, err := LongestPaths(w)
		if err != nil {
			return nil, err
		}
		for i, p := range paths {
			keys[i] = p.Seconds()
		}
	case "MPF":
		for i, d := range Dependents(w) {
			keys[i] = float64(len(d))
		}
	default:
		return nil, fmt.Errorf("oracle: unknown policy %q", policy)
	}
	ids := make([]int, len(keys))
	for i := range ids {
		ids[i] = i
	}
	sort.SliceStable(ids, func(a, b int) bool {
		if keys[ids[a]] != keys[ids[b]] {
			return keys[ids[a]] > keys[ids[b]]
		}
		return ids[a] < ids[b]
	})
	ranks := make([]int, len(keys))
	for r, id := range ids {
		ranks[id] = r
	}
	return ranks, nil
}

// PlanKey is the planner's old cache key: sha256 over the request shape, the
// relative deadline and the job table, walked on every request.
func PlanKey(w *workflow.Workflow, variant byte, capMaps, capReds int, margin float64, policy string) [sha256.Size]byte {
	h := sha256.New()
	var buf [2 * binary.MaxVarintLen64]byte
	put := func(v uint64) {
		n := binary.PutUvarint(buf[:], v)
		h.Write(buf[:n])
	}
	h.Write([]byte{variant})
	put(uint64(capMaps))
	put(uint64(capReds))
	put(math.Float64bits(margin))
	put(uint64(len(policy)))
	h.Write([]byte(policy))
	put(uint64(w.RelativeDeadline()))
	put(uint64(len(w.Jobs)))
	var prereqs []int
	for i := range w.Jobs {
		j := &w.Jobs[i]
		put(uint64(j.Maps))
		put(uint64(j.Reduces))
		put(uint64(j.MapTime))
		put(uint64(j.ReduceTime))
		put(uint64(len(j.Prereqs)))
		prereqs = prereqs[:0]
		for _, p := range j.Prereqs {
			prereqs = append(prereqs, int(p))
		}
		sort.Ints(prereqs)
		for _, p := range prereqs {
			put(uint64(p))
		}
	}
	var k [sha256.Size]byte
	h.Sum(k[:0])
	return k
}

// Bisect is the old plan.SequentialSearch: a plain bisection over caps in
// which every probe builds a full plan and says whether it meets the target.
// It returns the plan of the smallest cap in [lo, hi) that did — the zero P
// when none — and how many probes it ran.
func Bisect[P any](lo, hi int, probe func(cap int) (p P, within bool, err error)) (best P, probes int, err error) {
	for lo < hi {
		mid := lo + (hi-lo)/2
		p, within, err := probe(mid)
		if err != nil {
			return best, probes, err
		}
		probes++
		if within {
			best, hi = p, mid
		} else {
			lo = mid + 1
		}
	}
	return best, probes, nil
}

// RandomWorkflow builds a random DAG of nJobs jobs: every earlier job is a
// prerequisite with probability 1/4, 1–30 maps of 1–60 s, 0–9 reduces of
// 1–240 s, released at 0 with a deadline far enough out never to matter.
func RandomWorkflow(rng *rand.Rand, nJobs int) *workflow.Workflow {
	b := workflow.NewBuilder("rand")
	names := make([]string, nJobs)
	for i := 0; i < nJobs; i++ {
		names[i] = "j" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		var after []string
		for k := 0; k < i; k++ {
			if rng.Intn(4) == 0 {
				after = append(after, names[k])
			}
		}
		maps := 1 + rng.Intn(30)
		reduces := rng.Intn(10)
		b.Job(names[i], maps, reduces,
			time.Duration(1+rng.Intn(60))*time.Second,
			time.Duration(1+rng.Intn(240))*time.Second, after...)
	}
	w, err := b.Build(0, simtime.FromSeconds(1e9))
	if err != nil {
		panic(err)
	}
	return w
}
