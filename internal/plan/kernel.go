package plan

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/simtime"
	"repro/internal/workflow"
)

// Unlimited is the limit of a run that must go to completion.
const Unlimited = time.Duration(math.MaxInt64)

// Kernel is Algorithm 1 bound to one (workflow, job ordering) pair: the one
// simulator behind every generator in this package and behind every caller
// that only needs a makespan (admission's feasibility stage, deadline
// assignment). What depends on the workflow alone — the dependent adjacency,
// the task total, which pools it needs — is read from the workflow's compiled
// form, so binding only lays out the state every run starts from; each
// Makespan/MakespanTyped call is then one simulation that records nothing and
// allocates nothing once the kernel's buffers are warm.
//
// A run takes a limit and stops at the first task batch whose finish passes
// it. The simulated end is the maximum over batch finishes and only grows, so
// "a batch finished past limit" is exactly "makespan > limit": stopping there
// changes no answer, it only skips the rest of a simulation whose verdict is
// already known.
//
// A Kernel is not safe for concurrent use. The workflow and ranks must not
// change between Bind and Release.
type Kernel struct {
	w     *workflow.Workflow
	c     *workflow.Compiled // w.Compiled()
	ranks []int

	// What every run starts from, set by bind: each job's state and the
	// roots in rank order.
	startJobs []jobRun
	roots     []workflow.JobID

	// What the makespan bounds read, set by bind: whether the job table is
	// one they hold for (valid and a DAG), the task work each pool carries,
	// and a per-job scratch for the chain bound.
	bounded          bool
	mapWork, redWork time.Duration
	chain            []time.Duration

	// Per-run state. won holds the raw list of a search's best recorded run:
	// a recorded run that meets its limit swaps its list in.
	jobs []jobRun
	raw  []rawReq
	won  []rawReq
	// active holds ready jobs sorted by ascending rank (ranks are a
	// permutation, so the order is total and deterministic).
	active []workflow.JobID
	// flights holds the batches in flight, threaded into one lane per job
	// (jobRun.head); a landed batch's slot is reused, so the slice stays as
	// long as the most batches ever in flight at once. due is a binary
	// min-heap holding one entry per job whose lane is not empty, keyed by
	// the finish of the lane's head.
	flights []flight
	due     []dueJob
}

// jobRun is one job's state in a run.
type jobRun struct {
	maps, reduces       int // tasks not yet dispatched
	mapTime, reduceTime time.Duration
	unmet               int // prerequisites not yet finished
	// head and tail delimit the job's lane: its batches in flight, in
	// finish order, linked through flights by flight.next. head is -1 when
	// the lane is empty.
	head, tail int32
}

var kernelPool = sync.Pool{New: func() any { return new(Kernel) }}

// Bind draws a kernel from the pool and binds it to w under ranks (smaller
// rank = higher priority, a permutation as produced by a priority.Policy).
// Release it when done.
func Bind(w *workflow.Workflow, ranks []int) (*Kernel, error) {
	k := kernelPool.Get().(*Kernel)
	if err := k.bind(w, ranks); err != nil {
		kernelPool.Put(k)
		return nil, err
	}
	return k, nil
}

// bind is Bind on an explicit kernel, so tests and benchmarks can compare
// pooled against freshly allocated state.
func (k *Kernel) bind(w *workflow.Workflow, ranks []int) error {
	if len(ranks) != len(w.Jobs) {
		return fmt.Errorf("plan: %d ranks for %d jobs", len(ranks), len(w.Jobs))
	}
	k.w, k.c, k.ranks = w, w.Compiled(), ranks
	k.startJobs, k.roots = k.startJobs[:0], k.roots[:0]
	k.bounded = k.c.JobsErr() == nil
	k.mapWork, k.redWork = 0, 0
	k.chain = resize(k.chain, len(w.Jobs))
	for i := range w.Jobs {
		j := &w.Jobs[i]
		k.mapWork += time.Duration(j.Maps) * j.MapTime
		k.redWork += time.Duration(j.Reduces) * j.ReduceTime
		k.startJobs = append(k.startJobs, jobRun{
			maps: j.Maps, reduces: j.Reduces,
			mapTime: j.MapTime, reduceTime: j.ReduceTime,
			unmet: len(j.Prereqs),
			head:  -1,
		})
		if len(j.Prereqs) == 0 {
			k.roots = append(k.roots, workflow.JobID(i))
		}
	}
	slices.SortFunc(k.roots, func(a, b workflow.JobID) int { return ranks[a] - ranks[b] })
	return nil
}

// Release returns the kernel to the pool. It drops the workflow and ranks
// references so an idle pooled kernel pins neither.
func (k *Kernel) Release() {
	k.w, k.c, k.ranks = nil, nil, nil
	kernelPool.Put(k)
}

// Makespan simulates the bound workflow alone on n fungible slots. It
// returns the makespan and true when that is at most limit; otherwise it
// stops at the first batch finishing past limit and returns that finish — a
// lower bound on the makespan — and false.
func (k *Kernel) Makespan(n int, limit time.Duration) (time.Duration, bool, error) {
	end, within, err := k.runSingle(n, simtime.Epoch.Add(limit), false)
	return end.Duration(), within, err
}

// MakespanTyped is Makespan with separate map and reduce slot pools.
func (k *Kernel) MakespanTyped(caps Caps, limit time.Duration) (time.Duration, bool, error) {
	end, within, err := k.runTyped(caps, simtime.Epoch.Add(limit), false)
	return end.Duration(), within, err
}

// start resets the per-run state.
func (k *Kernel) start() {
	k.jobs = append(k.jobs[:0], k.startJobs...)
	k.active = append(k.active[:0], k.roots...)
	k.raw = k.raw[:0]
	k.flights = k.flights[:0]
	k.due = k.due[:0]
}

// flight is one dispatched task batch: when it finishes at at, n slots
// return to pool, and ends says which phase of its job, if any, it was the
// last batch of.
type flight struct {
	at   simtime.Time
	n    int32
	next int32 // the next batch in the job's lane, or the next free slot; -1 at the end
	pool uint8
	ends phaseEnd
}

type phaseEnd uint8

const (
	endsNone phaseEnd = iota
	endsMaps          // the job's reduce phase becomes schedulable (Algorithm 1 line 21)
	endsJob           // the job is done; dependents may activate (lines 29-31)
)

// dueJob is job j's entry in due: the head of its lane finishes at at.
type dueJob struct {
	at simtime.Time
	j  workflow.JobID
}

// run simulates the bound workflow with maps drawing on pools[0] and reduces
// on pools[red] — red is 1 for typed pools and 0 when one fungible pool
// serves both. It returns the makespan and true, or — stopping there — the
// first batch finish past limit and false. With record set the raw
// requirement list is left in k.raw.
//
// There is no event queue. Every batch of one job phase takes the job's
// duration and a job's reduces start only after its last map finishes, so
// each job's batches finish in the order they were dispatched: a job's lane
// is sorted by construction, and due merges the lanes by their heads. Nothing
// is ordered inside an instant either, because nothing needs to be: freed
// slots add up, and activations land in the rank-sorted active list wherever
// they come from. TestKernelMatchesReference holds the loop to the
// queue-based simulation it replaced, draining each instant forwards and in
// reverse.
func (k *Kernel) run(pools [2]int, red int, limit simtime.Time, record bool) (simtime.Time, bool, error) {
	k.start()
	// The run's hot slices live in locals: a store through k would make the
	// compiler reload them after every write. flights goes back to k at
	// either return so that its capacity serves the next run.
	jobs, flights, spare := k.jobs, k.flights, int32(-1)
	left := k.c.TotalTasks
	var end simtime.Time
	for t := simtime.Epoch; ; {
		// Work-conserving scan in rank order (Algorithm 1 lines 14-35): each
		// active job takes what its current phase can use from its pool. A
		// job whose phase is exhausted leaves the list, compacted in place
		// behind the scan (nothing activates mid-scan); once every pool is
		// empty the rest of the list stays as it is.
		kept := 0
		for i, j := range k.active {
			if pools[0] == 0 && pools[red] == 0 {
				kept += copy(k.active[kept:], k.active[i:])
				break
			}
			js := &jobs[j]
			rem, dur, p := &js.maps, js.mapTime, 0
			inMaps := *rem > 0
			if !inMaps {
				rem, dur, p = &js.reduces, js.reduceTime, red
			}
			n := min(*rem, pools[p])
			if n == 0 {
				k.active[kept] = j
				kept++
				continue
			}
			done := t.Add(dur)
			if done > limit {
				k.flights = flights
				return done, false, nil
			}
			if record {
				k.raw = append(k.raw, rawReq{at: t, count: n})
			}
			pools[p] -= n
			*rem -= n
			left -= n
			end = simtime.MaxOf(end, done)
			ends := endsNone
			switch {
			case *rem > 0:
				k.active[kept] = j
				kept++
			case inMaps && js.reduces > 0:
				ends = endsMaps
			default:
				ends = endsJob
			}
			// File the batch behind the job's others in flight; a job that
			// had none enters due. The fields are written in place: a flight
			// built whole on the stack and copied stalls on store forwarding.
			fi := spare
			if fi >= 0 {
				spare = flights[fi].next
			} else {
				fi = int32(len(flights))
				flights = append(flights, flight{})
			}
			f := &flights[fi]
			f.at, f.n, f.next, f.pool, f.ends = done, int32(n), -1, uint8(p), ends
			if js.head >= 0 {
				flights[js.tail].next = fi
				js.tail = fi
			} else {
				js.head, js.tail = fi, fi
				k.pushDue(done, j)
			}
		}
		k.active = k.active[:kept]
		if len(k.due) == 0 {
			break
		}

		// Land every batch finishing at the next instant: due's root names a
		// job whose first batch in flight finishes now, and after landing it
		// and any of the job's others due now, the job's entry is re-keyed to
		// its next batch or leaves.
		t = k.due[0].at
		for len(k.due) > 0 && k.due[0].at == t {
			j := k.due[0].j
			js := &jobs[j]
			for {
				f := &flights[js.head]
				js.head, f.next, spare = f.next, spare, js.head
				pools[f.pool] += int(f.n)
				switch f.ends {
				case endsMaps:
					k.activate(j)
				case endsJob:
					for _, d := range k.c.DependentsOf(j) {
						if jobs[d].unmet--; jobs[d].unmet == 0 {
							k.activate(d)
						}
					}
				}
				if js.head < 0 {
					last := len(k.due) - 1
					k.due[0] = k.due[last]
					k.due = k.due[:last]
					break
				}
				if at := flights[js.head].at; at != t {
					k.due[0].at = at
					break
				}
			}
			k.siftDue()
		}
	}
	k.flights = flights
	if left != 0 {
		return 0, false, k.unfinished()
	}
	return end, true, nil
}

// activate inserts j into the rank-sorted active list.
func (k *Kernel) activate(j workflow.JobID) {
	r := k.ranks[j]
	i := sort.Search(len(k.active), func(n int) bool { return k.ranks[k.active[n]] > r })
	k.active = append(k.active, 0)
	copy(k.active[i+1:], k.active[i:])
	k.active[i] = j
}

// pushDue enters job j into due, its first batch in flight finishing at at.
func (k *Kernel) pushDue(at simtime.Time, j workflow.JobID) {
	k.due = append(k.due, dueJob{at: at, j: j})
	for c := len(k.due) - 1; c > 0; {
		p := (c - 1) / 2
		if k.due[p].at <= k.due[c].at {
			break
		}
		k.due[p], k.due[c] = k.due[c], k.due[p]
		c = p
	}
}

// siftDue restores due's heap order after its root changed.
func (k *Kernel) siftDue() {
	h := k.due
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].at < h[c].at {
			c++
		}
		if h[i].at <= h[c].at {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// bounds brackets the makespan of a run on pools, maps drawing on pools[0]
// and reduces on pools[red] as in run, without simulating and without
// allocating. ok is false when the bounds do not hold: a job table that is
// invalid or not a DAG, or a pool the workflow needs left empty (run refuses
// it).
//
// lower is the larger of two bounds every schedule obeys (arXiv
// 1711.09964). A pool of s slots serves its work w no faster than w/s. And no
// phase of t tasks of duration d finishes in less than ⌈t/s⌉·d after it
// starts: at most s of its tasks run at once, so they pack onto s slots one
// after another and some slot runs ⌈t/s⌉ of them; a job's reduces wait for
// its maps and its maps for its prerequisites, so these wave times add up
// along every chain of jobs.
//
// upper is Graham's bound for the work-conserving scan: the critical path
// plus ⌈w/s⌉ for each pool. Walk back from the batch that finishes last:
// each task on the way became ready when the one before it finished (the
// job's last map, or a prerequisite's last task), and waited only while the
// scan found its pool full. The tasks' own durations follow one chain of the
// DAG, at most the critical path; the waits are disjoint instants at which
// some pool had all s slots busy, at most w/s of them per pool.
func (k *Kernel) bounds(pools [2]int, red int) (lower, upper time.Duration, ok bool) {
	if !k.bounded || pools[0] < 0 || pools[red] < 0 {
		return 0, 0, false
	}
	work := [2]time.Duration{k.mapWork, 0}
	work[red] += k.redWork
	for p := 0; p <= red; p++ {
		if work[p] == 0 {
			continue
		}
		if pools[p] <= 0 {
			return 0, 0, false
		}
		w := (work[p] + time.Duration(pools[p]) - 1) / time.Duration(pools[p])
		lower = max(lower, w)
		upper += w
	}
	upper += k.c.CriticalPath
	// The chain bound, settled dependents first.
	maps, reds := pools[0], pools[red]
	for i := len(k.c.Topo) - 1; i >= 0; i-- {
		j := k.c.Topo[i]
		var after time.Duration
		for _, d := range k.c.DependentsOf(j) {
			after = max(after, k.chain[d])
		}
		job := &k.w.Jobs[j]
		if job.Maps > 0 {
			after += time.Duration((job.Maps+maps-1)/maps) * job.MapTime
		}
		if job.Reduces > 0 {
			after += time.Duration((job.Reduces+reds-1)/reds) * job.ReduceTime
		}
		k.chain[j] = after
		lower = max(lower, after)
	}
	return lower, upper, true
}

// unfinished is the error of a run that went to completion with tasks left
// over. With the pools checked up front only a workflow that is not a DAG
// gets here.
func (k *Kernel) unfinished() error {
	i := 0
	for i < len(k.w.Jobs)-1 && k.jobs[i].maps == 0 && k.jobs[i].reduces == 0 {
		i++
	}
	return fmt.Errorf("plan: job %q never fully scheduled (internal error: unmet prerequisites)", k.w.Jobs[i].Name)
}

type rawReq struct {
	at    simtime.Time
	count int
}

// resize returns s with length n, reusing its backing array when possible.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
