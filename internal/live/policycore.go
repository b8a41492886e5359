package live

import (
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
)

// policyCore owns the pluggable scheduling policy behind the master's one
// lock. cluster.Policy implementations are contractually single-threaded,
// so every NextTask consultation and lifecycle notification runs under mu,
// and so does every write to workflow state.
type policyCore struct {
	mu  sync.Mutex
	pol cluster.Policy
	// reduces is pol's ReducePhasePolicy view, nil if unimplemented.
	reduces cluster.ReducePhasePolicy
	// home is the pooled order the last pipeline pass was combined for, and
	// homeAt that order's instant. sync.Pool keeps one order per P, so home
	// names the core whose caches hold the policy and workflow state; the
	// combiner writes both under mu, waiters read them (pipeline, grace).
	home   atomic.Pointer[pipeReq]
	homeAt atomic.Int64
}

func newPolicyCore(pol cluster.Policy) *policyCore {
	c := &policyCore{pol: pol}
	c.reduces, _ = pol.(cluster.ReducePhasePolicy)
	return c
}
