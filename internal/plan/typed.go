package plan

import (
	"fmt"

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
// gets the best-effort full plan. It is Rank followed by
// GenerateCappedTypedRanked.
func GenerateCappedTyped(w *workflow.Workflow, cluster Caps, pol priority.Policy, margin float64) (*Plan, error) {
	ranks, err := Rank(w, pol)
	if err != nil {
		return nil, err
	}
	return GenerateCappedTypedRanked(w, cluster, pol.Name(), ranks, margin)
}

// GenerateCappedTypedRanked is GenerateCappedTyped under a job ordering ranked
// beforehand, labelled policyName: the generator reads nothing else of a
// policy, so two policies that rank w's jobs alike get the same plan but for
// its Policy field.
func GenerateCappedTypedRanked(w *workflow.Workflow, cluster Caps, policyName string, ranks []int, margin float64) (*Plan, error) {
	if cluster.Maps <= 0 || cluster.Reduces <= 0 {
		return nil, fmt.Errorf("plan: bad cluster caps %+v", cluster)
	}
	return generateCapped(w, policyName, ranks, margin, Ladder{Lo: 2, Hi: cluster.Total(), Typed: true, Cluster: cluster})
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

// runTyped simulates the bound workflow on two slot pools: run with the
// reduces drawing on their own pool.
func (k *Kernel) runTyped(caps Caps, limit simtime.Time, record bool) (simtime.Time, bool, error) {
	if err := k.checkCaps(caps); err != nil {
		return 0, false, err
	}
	return k.run([2]int{caps.Maps, caps.Reduces}, 1, limit, record)
}
