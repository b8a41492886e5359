package planner

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/workflow"
)

// cacheKey is the canonical structural hash of one plan request. Two
// requests share a key exactly when the sequential generator would emit the
// same plan for both, so a hit can be served without simulating:
//
//   - the request shape: generator variant, cap bounds, margin, policy name;
//   - the workflow's relative deadline (plans depend on S_i and D_i only
//     through D_i - S_i, so recurring instances of one template collide);
//   - the DAG structure: per-job task counts and durations plus the
//     prerequisite sets (canonicalized by sorting — prerequisite order is
//     semantically irrelevant), with jobs in ID order.
//
// Names and dataset paths are deliberately excluded: priority policies rank
// by structure with job-ID tie-breaks, so same-shaped workflows under
// different names yield identical ranks and therefore identical plans.
type cacheKey [sha256.Size]byte

// Generator variants discriminated by the key.
const (
	variantSingle   byte = 1 // GenerateCappedMargin (one slot pool)
	variantTyped    byte = 2 // GenerateCappedTyped (map/reduce pools)
	variantUncapped byte = 3 // Generate at a fixed cap (Estimate)
)

func keyFor(w *workflow.Workflow, variant byte, capMaps, capReds int, margin float64, policy string) cacheKey {
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
	var k cacheKey
	h.Sum(k[:0])
	return k
}

// planCache is a mutex-guarded LRU over structural keys. Entries are cloned
// on the way in and on the way out, so cached plans can never be corrupted
// by callers mutating what they were handed.
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

// served returns an independent copy of p for a request that ran no
// simulation of its own (a cache hit, a coalesced waiter): the search
// diagnostics read 0.
func served(p *plan.Plan) *plan.Plan {
	c := p.Clone()
	c.SearchIters, c.ProbesCut = 0, 0
	return c
}

// get returns an independent copy of the cached plan, marked with
// SearchIters 0 (a hit runs zero simulations). Safe on a nil cache.
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
	return served(n.p), true
}

// put stores a copy of p under k, evicting the least recently used entry
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
	n := &cacheNode{key: k, p: p.Clone()}
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
