package plan

// The referee is Algorithm 1 as this package ran it on an event queue
// (simtime.Queue), before the kernel dropped the queue for per-job batch
// lanes: the two simulators' bodies as they were, every batch finish an
// event with an (at, seq) stamp and every instant drained in stamp order.
// They pushed through the queue's fixed FIFO lane, since folded away; they
// push with Push now, which pops in the same order. The referee is kept,
// test-only, as what Kernel.run must agree with batch for batch — the raw
// requirement list, the end and the within answer at every cap and limit.
// With reverse set it drains each instant back to front, which pins the
// property the kernel relies on: the events of one instant commute.

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/oracle"
	"repro/internal/priority"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// referee runs the queue-based simulators on an embedded kernel's bound
// workflow and raw list.
type referee struct {
	*Kernel
	reverse bool

	// Per-run state shared by both simulators.
	remMaps, remReds []int
	unmet            []int

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

// start resets the per-run state both simulators share.
func (k *referee) start() {
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
func (k *referee) unfinished() error {
	i := 0
	for i < len(k.w.Jobs)-1 && k.remMaps[i] == 0 && k.remReds[i] == 0 {
		i++
	}
	return fmt.Errorf("plan: job %q never fully scheduled (internal error: unmet prerequisites)", k.w.Jobs[i].Name)
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
func (k *referee) runSingle(n int, limit simtime.Time, record bool) (simtime.Time, bool, error) {
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
		if k.reverse {
			slices.Reverse(k.batch)
		}
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
			k.events.Push(done, genEvent{slots: n, reduceOf: -1, completed: -1})
			end = simtime.MaxOf(end, done)
			if *rem == 0 {
				k.heap.pop()
				if inMaps && k.remReds[j] > 0 {
					k.events.Push(done, genEvent{slots: 0, reduceOf: j, completed: -1})
				} else {
					k.events.Push(done, genEvent{slots: 0, reduceOf: -1, completed: j})
				}
			}
		}
	}
	if left != 0 {
		return 0, false, k.unfinished()
	}
	return end, true, nil
}

func (k *referee) activateSingle(j workflow.JobID) {
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

type typedEvent struct {
	freeMaps  int
	freeReds  int
	reduceOf  workflow.JobID // -1 if none
	completed workflow.JobID // -1 if none
}

// runTyped simulates the bound workflow on two slot pools. It returns the
// makespan and true, or — stopping there — the first batch finish past limit
// and false. With record set the raw requirement list is left in k.raw.
func (k *referee) runTyped(caps Caps, limit simtime.Time, record bool) (simtime.Time, bool, error) {
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
		if k.reverse {
			slices.Reverse(k.tbatch)
		}
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
			k.tevents.Push(done, e)
		}
		k.active = k.active[:kept]
	}
	if left != 0 {
		return 0, false, k.unfinished()
	}
	return end, true, nil
}

// activateTyped inserts j into the rank-sorted active list.
func (k *referee) activateTyped(j workflow.JobID) {
	r := k.ranks[j]
	i := sort.Search(len(k.active), func(n int) bool { return k.ranks[k.active[n]] > r })
	k.active = append(k.active, 0)
	copy(k.active[i+1:], k.active[i:])
	k.active[i] = j
}

// simulator is what the kernel and the referee both offer.
type simulator interface {
	runSingle(n int, limit simtime.Time, record bool) (simtime.Time, bool, error)
	runTyped(caps Caps, limit simtime.Time, record bool) (simtime.Time, bool, error)
}

// simulate is one recorded run of either kind on s: typed caps when typed,
// else caps.Total() fungible slots.
func simulate(s simulator, typed bool, caps Caps, limit simtime.Time) (simtime.Time, bool, error) {
	if typed {
		return s.runTyped(caps, limit, true)
	}
	return s.runSingle(caps.Total(), limit, true)
}

// refereePair binds a kernel and a forward and a reverse referee to w.
type refereePair struct {
	k        *Kernel
	fwd, rev *referee
}

func bindReferees(t testing.TB, w *workflow.Workflow, ranks []int) refereePair {
	t.Helper()
	p := refereePair{k: new(Kernel), fwd: &referee{Kernel: new(Kernel)}, rev: &referee{Kernel: new(Kernel), reverse: true}}
	for _, k := range []*Kernel{p.k, p.fwd.Kernel, p.rev.Kernel} {
		if err := k.bind(w, ranks); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// check runs one simulation on the kernel and both referees and demands the
// same end, within answer, error and raw list from all three. It returns the
// kernel's end.
func (p refereePair) check(t testing.TB, what string, typed bool, caps Caps, limit simtime.Time) simtime.Time {
	t.Helper()
	end, within, err := simulate(p.k, typed, caps, limit)
	for _, r := range []*referee{p.fwd, p.rev} {
		rend, rwithin, rerr := simulate(r, typed, caps, limit)
		if end != rend || within != rwithin || fmt.Sprint(err) != fmt.Sprint(rerr) {
			t.Fatalf("%s limit %v (reverse %v): kernel (%v, %v, %v), referee (%v, %v, %v)",
				what, limit, r.reverse, end, within, err, rend, rwithin, rerr)
		}
		if !slices.Equal(p.k.raw, r.raw) {
			t.Fatalf("%s limit %v (reverse %v): raw lists differ: kernel %d entries, referee %d",
				what, limit, r.reverse, len(p.k.raw), len(r.raw))
		}
	}
	return end
}

// RaceEnabled is raceEnabled for this package's external tests.
const RaceEnabled = raceEnabled

// CheckCapLadder runs w under ranks on the kernel and both referees at every
// stride-th cap of both pool models, each cap unlimited and at limits around
// its makespan m: 0, m/2, m-1, m and 2m. Exported to this package's external
// tests, which can reach the workload corpus (workload imports plan).
func CheckCapLadder(t testing.TB, what string, w *workflow.Workflow, ranks []int, cluster Caps, stride int) {
	t.Helper()
	p := bindReferees(t, w, ranks)
	for _, typed := range []bool{false, true} {
		lo := 1
		if typed {
			lo = 2
		}
		for c := lo; c <= cluster.Total(); c += stride {
			caps := Caps{Maps: c}
			if typed {
				caps = TypedCapsFor(cluster, c)
			}
			at := fmt.Sprintf("%s typed %v cap %+v", what, typed, caps)
			m := p.check(t, at, typed, caps, simtime.MaxTime)
			for _, limit := range []simtime.Time{0, m / 2, m - 1, m, 2 * m} {
				p.check(t, at, typed, caps, limit)
			}
		}
	}
}

// FuzzKernelMatchesReference drives the kernel against both referees from a
// seeded DAG shape, cluster caps, policy and a limit anywhere up to twice
// the makespan.
func FuzzKernelMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(12), uint8(6), uint8(0), uint8(100))
	f.Add(int64(2), uint8(30), uint8(60), uint8(30), uint8(1), uint8(255))
	f.Add(int64(3), uint8(1), uint8(1), uint8(1), uint8(2), uint8(0))
	f.Add(int64(4), uint8(18), uint8(3), uint8(40), uint8(0), uint8(128))
	f.Fuzz(func(t *testing.T, seed int64, jobs, maps, reduces, pol, limitFrac uint8) {
		rng := rand.New(rand.NewSource(seed))
		w := oracle.RandomWorkflow(rng, 1+int(jobs)%40)
		cluster := Caps{Maps: 1 + int(maps)%96, Reduces: 1 + int(reduces)%48}
		ranks, err := priority.All()[int(pol)%len(priority.All())].Rank(w)
		if err != nil {
			t.Fatal(err)
		}
		p := bindReferees(t, w, ranks)
		for _, typed := range []bool{false, true} {
			caps := Caps{Maps: cluster.Total()}
			if typed {
				caps = TypedCapsFor(cluster, 2+rng.Intn(cluster.Total()-1))
			} else {
				caps.Maps = 1 + rng.Intn(cluster.Total())
			}
			what := fmt.Sprintf("seed %d typed %v caps %+v", seed, typed, caps)
			m := p.check(t, what, typed, caps, simtime.MaxTime)
			p.check(t, what, typed, caps, m*simtime.Time(limitFrac)/128)
		}
	})
}
