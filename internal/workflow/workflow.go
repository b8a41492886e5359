// Package workflow defines the WOHA workflow model from Section II of the
// paper: a workflow W_i is a set of interdependent Map-Reduce jobs ("wjobs")
// J_i with prerequisite sets P_i, a submission (release) time S_i, and a
// deadline D_i. Job J_i^j has m_i^j map tasks taking M_i^j each and r_i^j
// reduce tasks taking R_i^j each.
//
// The package also provides the DAG utilities every other component builds
// on, all read from one compiled form per workflow (Compiled): validation
// (including cycle detection), dependents, levels (for HLF), longest paths
// (for LPF), topological order, critical-path bounds, and the structural
// digest plan caches key on.
package workflow

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simtime"
)

// JobID identifies a job within its workflow. IDs are dense indices into
// Workflow.Jobs: job k has ID k.
type JobID int

// Job is one Map-Reduce job inside a workflow (a "wjob").
type Job struct {
	// ID is the job's index in Workflow.Jobs.
	ID JobID
	// Name is a human-readable unique name within the workflow.
	Name string
	// Maps is the number of map tasks (m_i^j). May be zero for a
	// reduce-only job.
	Maps int
	// Reduces is the number of reduce tasks (r_i^j). May be zero for a
	// map-only job.
	Reduces int
	// MapTime is the estimated execution time of one map task (M_i^j).
	MapTime time.Duration
	// ReduceTime is the estimated execution time of one reduce task
	// (R_i^j).
	ReduceTime time.Duration
	// Prereqs lists the jobs that must finish before this job may start
	// (P_i^j). Order is not significant; entries are unique.
	Prereqs []JobID

	// Input and Output record the dataset paths from the workflow
	// configuration. They are informational after prerequisite inference
	// and may be empty for programmatically built workflows.
	Inputs []string
	Output string
}

// Tasks returns the total number of tasks in the job.
func (j *Job) Tasks() int { return j.Maps + j.Reduces }

// Length returns the job's serial length estimate used by Longest Path
// First: the sum of one map task's and one reduce task's execution times
// (Section V-C of the paper).
func (j *Job) Length() time.Duration {
	var d time.Duration
	if j.Maps > 0 {
		d += j.MapTime
	}
	if j.Reduces > 0 {
		d += j.ReduceTime
	}
	return d
}

// Workflow is a deadline-constrained DAG of Map-Reduce jobs:
// W_i = {J_i, P_i, S_i, D_i}.
//
// The job table (Jobs, with every job's counts, durations and prerequisites)
// is frozen at its first derived use — the first call of Compiled or of
// anything that reads it: ranking, planning, Validated, submission to a
// simulator or tracker. Name, Release, Deadline and Tenant stay assignable.
// To change the job table after that, edit a Clone; Validate refuses a table
// edited in place (ErrEditedAfterUse).
type Workflow struct {
	// Name identifies the workflow; unique within a run by convention.
	Name string
	// Jobs holds the wjobs; Jobs[k].ID == k.
	Jobs []Job
	// Release is the submission time S_i.
	Release simtime.Time
	// Deadline is the absolute deadline D_i.
	Deadline simtime.Time
	// Tenant names the submitting tenant for multi-tenant admission
	// policies (rate limits, quota shares, priority tiers). Empty means
	// untenanted: the admission front door skips the per-tenant stages.
	Tenant string

	// compiled is the one derived form of the job table, built under once
	// on first use. Workflows are shared across simulator runs, cells and
	// planner requests, so everything after the first touch is a read.
	once     sync.Once
	compiled atomic.Pointer[Compiled]
}

// Compiled returns the workflow's compiled form, building it on first use.
// From that call on the job table must not change.
func (w *Workflow) Compiled() *Compiled {
	if c := w.compiled.Load(); c != nil {
		return c
	}
	w.once.Do(func() { w.compiled.Store(compile(w)) })
	return w.compiled.Load()
}

// RootIDs returns the jobs with no prerequisites, ascending. Callers must
// not mutate the returned slice; Roots returns a fresh copy instead.
func (w *Workflow) RootIDs() []JobID { return w.Compiled().Roots }

// Roots returns the IDs of initially active jobs — those with no
// prerequisites.
func (w *Workflow) Roots() []JobID { return slices.Clone(w.RootIDs()) }

// DependentsOf returns the IDs of jobs that list j as a prerequisite (the
// set D_i^j from Section IV-A), in ascending ID order. Callers must not
// mutate the returned slice.
func (w *Workflow) DependentsOf(j JobID) []JobID { return w.Compiled().DependentsOf(j) }

// RelativeDeadline returns D_i - S_i, the time budget the workflow has from
// submission to deadline.
func (w *Workflow) RelativeDeadline() time.Duration {
	return w.Deadline.Sub(w.Release)
}

// TotalTasks returns the number of tasks summed over all jobs.
func (w *Workflow) TotalTasks() int { return w.Compiled().TotalTasks }

// Validation errors.
var (
	ErrEmptyWorkflow = errors.New("workflow: no jobs")
	ErrCycle         = errors.New("workflow: dependency cycle")
	// ErrEditedAfterUse is Validate's verdict on a job table that no longer
	// matches the form compiled at its first use.
	ErrEditedAfterUse = errors.New("workflow: job table edited after first use (clone the workflow before editing)")
)

// Validated returns the verdict on the compiled form — the job table as it
// stood at first use — together with a fresh check of the deadline. Hot paths
// that re-submit shared specs (the pooled simulator, the live trackers) use
// it: after the first call it allocates nothing.
func (w *Workflow) Validated() error { return w.verdict(w.Compiled()) }

// Validate checks structural invariants from scratch: at least one job,
// consistent IDs, unique non-empty names, in-range unique prerequisites,
// non-negative task counts with positive durations where counts are positive,
// acyclicity, and deadline after release. It returns the first problem found.
// On a workflow already in use it also refuses a job table that has been
// edited in place since (ErrEditedAfterUse): the rest of the system keeps
// reading the form compiled at first use.
func (w *Workflow) Validate() error {
	fresh := compile(w)
	if c := w.compiled.Load(); c != nil && c.Digest != fresh.Digest {
		return fmt.Errorf("workflow %q: %w", w.Name, ErrEditedAfterUse)
	}
	return w.verdict(fresh)
}

// verdict joins c's cached verdict on the job table with the one check that
// is never cached, because Release and Deadline stay assignable.
func (w *Workflow) verdict(c *Compiled) error {
	if c.err != nil {
		return c.err
	}
	if w.Deadline <= w.Release {
		return fmt.Errorf("workflow %q: deadline %v not after release %v", w.Name, w.Deadline, w.Release)
	}
	return nil
}

// checkJobs is the per-job half of validation; compile adds acyclicity.
func (w *Workflow) checkJobs() error {
	if len(w.Jobs) == 0 {
		return ErrEmptyWorkflow
	}
	names := make(map[string]bool, len(w.Jobs))
	for i := range w.Jobs {
		j := &w.Jobs[i]
		if j.ID != JobID(i) {
			return fmt.Errorf("workflow %q: job %d has ID %d, want %d", w.Name, i, j.ID, i)
		}
		if j.Name == "" {
			return fmt.Errorf("workflow %q: job %d has empty name", w.Name, i)
		}
		if names[j.Name] {
			return fmt.Errorf("workflow %q: duplicate job name %q", w.Name, j.Name)
		}
		names[j.Name] = true
		if j.Maps < 0 || j.Reduces < 0 {
			return fmt.Errorf("workflow %q: job %q has negative task count", w.Name, j.Name)
		}
		if j.Maps == 0 && j.Reduces == 0 {
			return fmt.Errorf("workflow %q: job %q has no tasks", w.Name, j.Name)
		}
		if j.Maps > 0 && j.MapTime <= 0 {
			return fmt.Errorf("workflow %q: job %q has %d maps but map time %v", w.Name, j.Name, j.Maps, j.MapTime)
		}
		if j.Reduces > 0 && j.ReduceTime <= 0 {
			return fmt.Errorf("workflow %q: job %q has %d reduces but reduce time %v", w.Name, j.Name, j.Reduces, j.ReduceTime)
		}
		seen := make(map[JobID]bool, len(j.Prereqs))
		for _, p := range j.Prereqs {
			if p < 0 || int(p) >= len(w.Jobs) {
				return fmt.Errorf("workflow %q: job %q prereq %d out of range", w.Name, j.Name, p)
			}
			if p == JobID(i) {
				return fmt.Errorf("workflow %q: job %q depends on itself", w.Name, j.Name)
			}
			if seen[p] {
				return fmt.Errorf("workflow %q: job %q lists prereq %d twice", w.Name, j.Name, p)
			}
			seen[p] = true
		}
	}
	return nil
}

// TopoOrder returns a topological ordering of job IDs (prerequisites before
// dependents), or ErrCycle if the dependency graph has a cycle. Among jobs
// that become ready simultaneously, lower IDs come first, so the order is
// deterministic.
func (w *Workflow) TopoOrder() ([]JobID, error) {
	c := w.Compiled()
	return slices.Clone(c.Topo), c.dagErr
}

// Levels computes the HLF level of every job: jobs with no dependents are at
// level 0, and a job's level is one more than the maximum level among its
// dependents (Section V-C). The workflow must be acyclic.
func (w *Workflow) Levels() ([]int, error) {
	c := w.Compiled()
	return slices.Clone(c.Levels), c.dagErr
}

// LongestPaths computes, for each job, the length of the longest downstream
// chain starting at (and including) that job, where a job's contribution is
// Job.Length. This is the LPF priority key.
func (w *Workflow) LongestPaths() ([]time.Duration, error) {
	c := w.Compiled()
	return slices.Clone(c.LongestPaths), c.dagErr
}

// CriticalPath returns the length of the longest prerequisite chain in the
// workflow under the Job.Length serial estimate. No schedule, regardless of
// slot count, can finish the workflow faster.
func (w *Workflow) CriticalPath() (time.Duration, error) {
	c := w.Compiled()
	return c.CriticalPath, c.dagErr
}

// SerialWork returns the total serial work in the workflow if every task ran
// back to back: sum over jobs of maps*MapTime + reduces*ReduceTime. Together
// with CriticalPath it brackets the achievable makespan.
func (w *Workflow) SerialWork() time.Duration { return w.Compiled().SerialWork }

// Clone returns a deep copy of w that has not been compiled yet — the way to
// edit a workflow already in use: change the clone's job table before its
// first use, which freezes it in turn.
//
// Simulators mutate per-run state derived from workflows but never the
// workflow itself; Clone is for callers that want to perturb one (deadline
// sweeps, learned durations, recurring instances) without aliasing.
func (w *Workflow) Clone() *Workflow {
	c := &Workflow{
		Name:     w.Name,
		Jobs:     make([]Job, len(w.Jobs)),
		Release:  w.Release,
		Deadline: w.Deadline,
		Tenant:   w.Tenant,
	}
	copy(c.Jobs, w.Jobs)
	for i := range c.Jobs {
		c.Jobs[i].Prereqs = append([]JobID(nil), w.Jobs[i].Prereqs...)
		c.Jobs[i].Inputs = append([]string(nil), w.Jobs[i].Inputs...)
	}
	return c
}

// JobByName returns the job with the given name, or nil if absent.
func (w *Workflow) JobByName(name string) *Job {
	for i := range w.Jobs {
		if w.Jobs[i].Name == name {
			return &w.Jobs[i]
		}
	}
	return nil
}
