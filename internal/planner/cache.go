package planner

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/workflow"
)

// cacheKey identifies one plan request by value — a comparable struct used
// directly as the map key, so a request hashes nothing of its own: the
// workflow's structural digest was computed once, when it was compiled. Two
// requests share a key exactly when the sequential generator would emit the
// same plan for both, so a hit can be served without simulating:
//
//   - the request shape: generator variant, cap bounds, margin, policy name;
//   - the workflow's relative deadline (plans depend on S_i and D_i only
//     through D_i - S_i, so recurring instances of one template collide);
//   - the DAG structure, as workflow.Digest defines it: task counts,
//     durations and prerequisite sets, jobs in ID order.
//
// Names and dataset paths are deliberately excluded: priority policies rank
// by structure with job-ID tie-breaks, so same-shaped workflows under
// different names yield identical ranks and therefore identical plans.
type cacheKey struct {
	shape            workflow.Digest
	deadline         time.Duration
	margin           uint64 // math.Float64bits, so the key compares bit for bit
	capMaps, capReds int
	policy           string
	variant          byte
}

// Generator variants discriminated by the key.
const (
	variantSingle   byte = 1 // GenerateCappedMargin (one slot pool)
	variantTyped    byte = 2 // GenerateCappedTyped (map/reduce pools)
	variantUncapped byte = 3 // Generate at a fixed cap (Estimate)
)

func keyFor(w *workflow.Workflow, variant byte, capMaps, capReds int, margin float64, policy string) cacheKey {
	return cacheKey{
		shape:    w.Compiled().Digest,
		deadline: w.RelativeDeadline(),
		margin:   math.Float64bits(margin),
		capMaps:  capMaps,
		capReds:  capReds,
		policy:   policy,
		variant:  variant,
	}
}

// String names the request shape for errors: enough to find the workflow.
func (k cacheKey) String() string {
	return fmt.Sprintf("shape %x policy %s caps %d/%d relative deadline %v", k.shape[:6], k.policy, k.capMaps, k.capReds, k.deadline)
}

// planCache is a mutex-guarded LRU over structural keys. It stores and hands
// out the same *plan.Plan: cached plans are shared read-only values (see
// Planner.Plan), so nothing is copied on the way in or out.
type planCache struct {
	mu    sync.Mutex
	max   int
	byKey map[cacheKey]*cacheNode
	// Doubly-linked recency list: front = most recently used.
	front, back *cacheNode
	stats       *obs.PlannerStats
}

type cacheNode struct {
	key        cacheKey
	p          *plan.Plan
	prev, next *cacheNode
}

func newPlanCache(max int, stats *obs.PlannerStats) *planCache {
	if max <= 0 {
		return nil
	}
	return &planCache{max: max, byKey: make(map[cacheKey]*cacheNode, max), stats: stats}
}

// shared returns what every requester of p's key but the one that generated
// it is handed: one header over p's Ranks and Reqs whose search diagnostics
// read 0, since those requests ran no simulation.
func shared(p *plan.Plan) *plan.Plan {
	c := *p
	c.SearchIters, c.ProbesCut = 0, 0
	return &c
}

// get returns the cached plan, shared. Safe on a nil cache.
func (c *planCache) get(k cacheKey) (*plan.Plan, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.byKey[k]
	if !ok {
		return nil, false
	}
	c.moveToFront(n)
	return n.p, true
}

// put stores p under k, evicting the least recently used entry
// when full. It reports whether p was stored: false means a concurrent fill
// of the same key won the race and p's generation was wasted work — recorded
// on the duplicate-fill counter so the loss is observable (the planner's
// request coalescing exists to keep that counter at zero). Safe on a nil
// cache (reports false: nothing was retained).
func (c *planCache) put(k cacheKey, p *plan.Plan) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.byKey[k]; ok {
		// Concurrent fill of the same key: keep the existing entry.
		c.moveToFront(n)
		if c.stats != nil {
			c.stats.DuplicateFills.Inc()
		}
		return false
	}
	if len(c.byKey) >= c.max {
		evict := c.back
		c.unlink(evict)
		delete(c.byKey, evict.key)
		if c.stats != nil {
			c.stats.CacheEvictions.Inc()
		}
	}
	n := &cacheNode{key: k, p: p}
	c.byKey[k] = n
	c.pushFront(n)
	return true
}

// len reports the current entry count. Safe on a nil cache.
func (c *planCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.byKey)
}

func (c *planCache) pushFront(n *cacheNode) {
	n.prev = nil
	n.next = c.front
	if c.front != nil {
		c.front.prev = n
	}
	c.front = n
	if c.back == nil {
		c.back = n
	}
}

func (c *planCache) unlink(n *cacheNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.front = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.back = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *planCache) moveToFront(n *cacheNode) {
	if c.front == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}
