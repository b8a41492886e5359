package workflow

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"time"
)

// Digest identifies a job table's structure: per-job task counts and
// durations plus the prerequisite sets, jobs in ID order. Names and dataset
// paths are left out — nothing derived here, no ranking and no plan depends
// on them — and each prerequisite set is sorted first, since its order is not
// significant. Two workflows with equal digests rank and plan identically
// under equal deadlines.
type Digest [sha256.Size]byte

// Compiled is everything the rest of the system derives from a workflow's
// job table, built once on first use (Workflow.Compiled) and shared
// read-only from then on: ranking, the plan kernel, the plan-cache key, the
// simulators and the live trackers all read this one form. Callers must not
// write through any of its slices.
type Compiled struct {
	// err is the verdict on the job table and its acyclicity — every check of
	// Validate except the deadline, which stays assignable.
	err error
	// dagErr is why the graph fields below are empty: a prerequisite out of
	// range or a cycle. nil otherwise, even when err is not.
	dagErr error

	// Roots lists the jobs with no prerequisites, ascending.
	Roots []JobID
	// depIdx/depList are the dependents in CSR form: job j's are
	// depList[depIdx[j]:depIdx[j+1]], ascending.
	depIdx  []int32
	depList []JobID
	// NumDependents[j] is the number of jobs listing j as a prerequisite
	// (the MPF key).
	NumDependents []int
	// Topo orders the jobs prerequisites-first, lowest ID first among jobs
	// ready together.
	Topo []JobID
	// Levels[j] is the HLF level: 0 for a job without dependents, else one
	// more than the highest level among its dependents (Section V-C).
	Levels []int
	// LongestPaths[j] is the longest downstream chain starting at and
	// including j under Job.Length (the LPF key); CriticalPath is their
	// maximum, which no schedule on any slot count can beat.
	LongestPaths []time.Duration
	CriticalPath time.Duration

	// MapTasks and ReduceTasks total the tasks per pool; FirstMap and
	// FirstReduce are the first job needing that pool, -1 when none does.
	MapTasks, ReduceTasks int
	FirstMap, FirstReduce int
	// TotalTasks is MapTasks + ReduceTasks.
	TotalTasks int
	// SerialWork is every task run back to back.
	SerialWork time.Duration
	// Digest is the structural digest of the job table.
	Digest Digest
}

// Err reports why the graph fields are empty (a prerequisite out of range,
// or ErrCycle); nil when they are filled.
func (c *Compiled) Err() error { return c.dagErr }

// JobsErr is the verdict on the job table and its acyclicity: every check
// of Validate except the deadline. nil means every job has tasks, every task
// count a positive duration and the graph is a DAG.
func (c *Compiled) JobsErr() error { return c.err }

// DependentsOf returns the jobs that list j as a prerequisite (the set D_i^j
// of Section IV-A), ascending.
func (c *Compiled) DependentsOf(j JobID) []JobID {
	return c.depList[c.depIdx[j]:c.depIdx[j+1]]
}

// compile derives w's compiled form from its job table. It accepts any table
// — Validate calls it on unchecked input — and never panics: a table whose
// graph cannot be built keeps empty graph fields and says why in Err.
func compile(w *Workflow) *Compiled {
	n := len(w.Jobs)
	c := &Compiled{
		err:           w.checkJobs(),
		depIdx:        make([]int32, n+1),
		NumDependents: make([]int, n),
		FirstMap:      -1,
		FirstReduce:   -1,
		Digest:        digest(w.Jobs),
	}
	for i := range w.Jobs {
		j := &w.Jobs[i]
		c.MapTasks += j.Maps
		c.ReduceTasks += j.Reduces
		if j.Maps > 0 && c.FirstMap < 0 {
			c.FirstMap = i
		}
		if j.Reduces > 0 && c.FirstReduce < 0 {
			c.FirstReduce = i
		}
		c.SerialWork += time.Duration(j.Maps)*j.MapTime + time.Duration(j.Reduces)*j.ReduceTime
	}
	c.TotalTasks = c.MapTasks + c.ReduceTasks

	for i := range w.Jobs {
		for _, p := range w.Jobs[i].Prereqs {
			if p < 0 || int(p) >= n {
				c.dagErr = fmt.Errorf("workflow %q: job %q prereq %d out of range", w.Name, w.Jobs[i].Name, p)
				clear(c.NumDependents)
				return c
			}
			c.NumDependents[p]++
		}
	}
	for j, k := range c.NumDependents {
		c.depIdx[j+1] = c.depIdx[j] + int32(k)
	}
	c.depList = make([]JobID, c.depIdx[n])
	// indeg is Kahn's in-degree below, -1 once a job is emitted.
	indeg := make([]int32, n)
	fill := slices.Clone(c.depIdx[:n])
	for i := range w.Jobs {
		pre := w.Jobs[i].Prereqs
		indeg[i] = int32(len(pre))
		if len(pre) == 0 {
			c.Roots = append(c.Roots, JobID(i))
		}
		for _, p := range pre {
			c.depList[fill[p]] = JobID(i)
			fill[p]++
		}
	}

	// Kahn, always emitting the lowest-ID ready job. Every job below cur is
	// emitted or not ready, so the scan only moves back when emitting a job
	// readies a dependent with a lower ID.
	c.Topo = make([]JobID, 0, n)
	for cur := 0; cur < n; {
		if indeg[cur] != 0 {
			cur++
			continue
		}
		indeg[cur] = -1
		c.Topo = append(c.Topo, JobID(cur))
		next := cur + 1
		for _, d := range c.DependentsOf(JobID(cur)) {
			indeg[d]--
			if indeg[d] == 0 && int(d) < next {
				next = int(d)
			}
		}
		cur = next
	}
	if len(c.Topo) < n {
		c.Topo, c.dagErr = nil, ErrCycle
		if c.err == nil {
			c.err = ErrCycle
		}
		return c
	}

	// Reverse topological order settles every dependent before its
	// prerequisite.
	c.Levels = make([]int, n)
	c.LongestPaths = make([]time.Duration, n)
	for i := n - 1; i >= 0; i-- {
		j := c.Topo[i]
		lvl, best := 0, time.Duration(0)
		for _, d := range c.DependentsOf(j) {
			lvl = max(lvl, c.Levels[d]+1)
			best = max(best, c.LongestPaths[d])
		}
		c.Levels[j] = lvl
		c.LongestPaths[j] = best + w.Jobs[j].Length()
		c.CriticalPath = max(c.CriticalPath, c.LongestPaths[j])
	}
	return c
}

// digest hashes the structure of a job table; see Digest for what counts.
func digest(jobs []Job) Digest {
	buf := make([]byte, 0, 16*len(jobs)+binary.MaxVarintLen64)
	buf = binary.AppendUvarint(buf, uint64(len(jobs)))
	var pre []JobID
	for i := range jobs {
		j := &jobs[i]
		buf = binary.AppendUvarint(buf, uint64(j.Maps))
		buf = binary.AppendUvarint(buf, uint64(j.Reduces))
		buf = binary.AppendUvarint(buf, uint64(j.MapTime))
		buf = binary.AppendUvarint(buf, uint64(j.ReduceTime))
		buf = binary.AppendUvarint(buf, uint64(len(j.Prereqs)))
		pre = append(pre[:0], j.Prereqs...)
		slices.Sort(pre)
		for _, p := range pre {
			buf = binary.AppendUvarint(buf, uint64(p))
		}
	}
	return sha256.Sum256(buf)
}
