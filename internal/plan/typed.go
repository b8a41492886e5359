package plan

import (
	"fmt"
	"sort"

	"repro/internal/priority"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// Caps is a two-pool resource cap: separate map and reduce slot budgets.
// Algorithm 1 in the paper treats the cluster as a single fungible slot pool;
// a real Hadoop-1 cluster types its slots, which makes single-pool plans
// systematically optimistic about reduce phases. GenerateTyped completes the
// algorithm for typed slots and is what the experiments use.
type Caps struct {
	Maps    int
	Reduces int
}

// Total returns the combined slot budget.
func (c Caps) Total() int { return c.Maps + c.Reduces }

// GenerateTyped is Generate with separate map and reduce slot pools: the
// simulated workflow's map tasks draw only from caps.Maps and reduce tasks
// only from caps.Reduces. The work-conserving scan lets a lower-priority
// job's reduces use idle reduce slots while a higher-priority job's maps
// saturate the map pool, exactly as the real JobTracker dispatch does. A pool
// may be empty only when the workflow has no task of that type.
// GenerateTyped is safe for concurrent use; simulator state is drawn from an
// internal pool.
func GenerateTyped(w *workflow.Workflow, caps Caps, policyName string, ranks []int) (*Plan, error) {
	k, err := Bind(w, ranks)
	if err != nil {
		return nil, err
	}
	defer k.Release()
	return k.generateTyped(caps, policyName)
}

// generateTypedWith is GenerateTyped on an explicit kernel, so tests and
// benchmarks can compare pooled against freshly allocated state.
func generateTypedWith(k *Kernel, w *workflow.Workflow, caps Caps, policyName string, ranks []int) (*Plan, error) {
	if err := k.bind(w, ranks); err != nil {
		return nil, err
	}
	return k.generateTyped(caps, policyName)
}

// generateTyped is one recorded, unlimited typed run assembled into a plan.
func (k *Kernel) generateTyped(caps Caps, policyName string) (*Plan, error) {
	end, _, err := k.runTyped(caps, simtime.MaxTime, true)
	if err != nil {
		return nil, err
	}
	return assemble(k.w, policyName, k.ranks, caps.Total(), end.Duration(), k.raw)
}

// TypedCapsFor maps a total slot budget onto typed caps in the cluster's
// map:reduce proportion, never letting either pool drop below one slot. It is
// the slice function GenerateCappedTyped bisects over, exported so external
// searchers probe exactly the same ladder of typed caps.
func TypedCapsFor(cluster Caps, total int) Caps {
	m := total * cluster.Maps / cluster.Total()
	if m < 1 {
		m = 1
	}
	r := total - m
	if r < 1 {
		r = 1
		if m > 1 {
			m = total - 1
		}
	}
	return Caps{Maps: m, Reduces: r}
}

// GenerateCappedTyped finds the smallest proportional slice of the cluster's
// typed slots under which the workflow still meets margin * deadline, and
// returns the plan at that slice. Fallback behaviour mirrors
// GenerateCappedMargin: if the margin target is unreachable the search
// retries against the real deadline, and a genuinely infeasible workflow
// gets the best-effort full plan.
func GenerateCappedTyped(w *workflow.Workflow, cluster Caps, pol priority.Policy, margin float64) (*Plan, error) {
	return GenerateCappedTypedWith(w, cluster, pol, margin, nil)
}

// GenerateCappedTypedWith is GenerateCappedTyped with an explicit cap
// searcher; a nil search uses SequentialSearch. Any conforming searcher (see
// CapSearcher) yields a byte-identical plan, so internal/planner can probe
// caps concurrently without changing results.
func GenerateCappedTypedWith(w *workflow.Workflow, cluster Caps, pol priority.Policy, margin float64, search CapSearcher) (*Plan, error) {
	if cluster.Maps <= 0 || cluster.Reduces <= 0 {
		return nil, fmt.Errorf("plan: bad cluster caps %+v", cluster)
	}
	return generateCapped(w, pol, margin, search, true, cluster, 2, cluster.Total())
}

type typedEvent struct {
	freeMaps  int
	freeReds  int
	reduceOf  workflow.JobID // -1 if none
	completed workflow.JobID // -1 if none
}

// checkCaps refuses pools the bound workflow cannot run on, before anything
// is simulated: a run stopped at its limit never reaches the end-of-run
// completeness check, so "over the limit" must not be able to stand in for
// "this pool can never schedule that job".
func (k *Kernel) checkCaps(caps Caps) error {
	if caps.Maps < 0 || caps.Reduces < 0 || caps.Total() <= 0 {
		return fmt.Errorf("plan: bad typed caps %+v", caps)
	}
	if caps.Maps == 0 && k.c.FirstMap >= 0 {
		j := &k.w.Jobs[k.c.FirstMap]
		return fmt.Errorf("plan: caps %+v have no map slots, but job %q has %d map tasks", caps, j.Name, j.Maps)
	}
	if caps.Reduces == 0 && k.c.FirstReduce >= 0 {
		j := &k.w.Jobs[k.c.FirstReduce]
		return fmt.Errorf("plan: caps %+v have no reduce slots, but job %q has %d reduce tasks", caps, j.Name, j.Reduces)
	}
	return nil
}

// runTyped simulates the bound workflow on two slot pools. It returns the
// makespan and true, or — stopping there — the first batch finish past limit
// and false. With record set the raw requirement list is left in k.raw.
func (k *Kernel) runTyped(caps Caps, limit simtime.Time, record bool) (simtime.Time, bool, error) {
	if err := k.checkCaps(caps); err != nil {
		return 0, false, err
	}
	k.start()
	k.active = k.active[:0]
	k.tevents.Reset()
	for i := range k.w.Jobs {
		if k.unmet[i] == 0 {
			k.activateTyped(workflow.JobID(i))
		}
	}
	// Kick the simulation with a zero event so scheduling happens at t=0.
	k.tevents.Push(simtime.Epoch, typedEvent{reduceOf: -1, completed: -1})

	freeMaps, freeReds, left := caps.Maps, caps.Reduces, k.c.TotalTasks
	var end simtime.Time
	for k.tevents.Len() > 0 {
		// One heap drain per instant; applying never pushes, so the batch is
		// the complete instant.
		k.tbatch = k.tbatch[:0]
		t, _ := k.tevents.DrainInstant(&k.tbatch)
		for _, e := range k.tbatch {
			freeMaps += e.freeMaps
			freeReds += e.freeReds
			if e.reduceOf >= 0 {
				k.activateTyped(e.reduceOf)
			}
			if e.completed >= 0 {
				for _, d := range k.c.DependentsOf(e.completed) {
					k.unmet[d]--
					if k.unmet[d] == 0 {
						k.activateTyped(d)
					}
				}
			}
		}

		// Work-conserving scan in rank order: each active job takes what
		// its current phase can use from the matching pool. A job whose
		// phase is exhausted leaves the active list; the list is compacted
		// in place behind the scan (nothing activates mid-scan).
		kept := 0
		for _, j := range k.active {
			job := &k.w.Jobs[j]
			rem, free, dur := &k.remMaps[j], &freeMaps, job.MapTime
			inMaps := *rem > 0
			if !inMaps {
				rem, free, dur = &k.remReds[j], &freeReds, job.ReduceTime
			}
			n := min(*rem, *free)
			if n == 0 {
				k.active[kept] = j
				kept++
				continue
			}
			done := t.Add(dur)
			if done > limit {
				return done, false, nil
			}
			if record {
				k.raw = append(k.raw, rawReq{at: t, count: n})
			}
			*free -= n
			*rem -= n
			left -= n
			end = simtime.MaxOf(end, done)
			e := typedEvent{reduceOf: -1, completed: -1}
			if inMaps {
				e.freeMaps = n
			} else {
				e.freeReds = n
			}
			switch {
			case *rem > 0:
				k.active[kept] = j
				kept++
			case inMaps && k.remReds[j] > 0:
				e.reduceOf = j
			default:
				e.completed = j
			}
			// Finishes mostly arrive in firing order (one job's waves, jobs
			// of like duration), so the queue's FIFO lane takes most of
			// them; the pop order is the same either way.
			k.tevents.PushOrdered(done, e)
		}
		k.active = k.active[:kept]
	}
	if left != 0 {
		return 0, false, k.unfinished()
	}
	return end, true, nil
}

// activateTyped inserts j into the rank-sorted active list.
func (k *Kernel) activateTyped(j workflow.JobID) {
	r := k.ranks[j]
	i := sort.Search(len(k.active), func(n int) bool { return k.ranks[k.active[n]] > r })
	k.active = append(k.active, 0)
	copy(k.active[i+1:], k.active[i:])
	k.active[i] = j
}
