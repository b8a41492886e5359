// Package estimate learns task execution time estimates from execution
// history. The WOHA paper assumes per-job map/reduce durations are known
// ("estimations of task execution times can be acquired from logs of
// historical executions"); this package closes that loop: a Recorder
// observes a run's actual task durations and produces median estimates that
// recurring workflow submissions feed back into plan generation.
package estimate

import (
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// Recorder accumulates actual task durations keyed by job name and slot
// type. It implements cluster.Observer; attach it to a simulation (or wrap
// it for the live cluster) and every executed task contributes one sample.
// Job names are the key because recurring workflow instances share them.
//
// Recorder is not safe for concurrent use; the discrete-event simulator is
// single-threaded.
type Recorder struct {
	samples map[sampleKey][]time.Duration
}

type sampleKey struct {
	job string
	st  cluster.SlotType
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{samples: make(map[sampleKey][]time.Duration)}
}

var _ cluster.Observer = (*Recorder)(nil)

// TaskStarted implements cluster.Observer: the simulator reports the task's
// actual (noise-perturbed) duration at start time.
func (r *Recorder) TaskStarted(_ simtime.Time, ws *cluster.WorkflowState, job workflow.JobID, st cluster.SlotType, dur time.Duration) {
	k := sampleKey{job: ws.Spec.Jobs[job].Name, st: st}
	r.samples[k] = append(r.samples[k], dur)
}

// TaskFinished implements cluster.Observer.
func (r *Recorder) TaskFinished(simtime.Time, *cluster.WorkflowState, workflow.JobID, cluster.SlotType) {
}

// Samples returns the number of recorded samples for a job's slot type.
func (r *Recorder) Samples(job string, st cluster.SlotType) int {
	return len(r.samples[sampleKey{job: job, st: st}])
}

// Estimate returns the median observed duration for the job's tasks of the
// given type. ok is false when no samples exist.
func (r *Recorder) Estimate(job string, st cluster.SlotType) (d time.Duration, ok bool) {
	s := r.samples[sampleKey{job: job, st: st}]
	if len(s) == 0 {
		return 0, false
	}
	sorted := append([]time.Duration(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2], true
}

// Apply returns a clone of w whose per-job duration estimates are the learned
// medians, and how many estimates that replaced. Jobs without history keep
// their configured estimates, so a workflow can be partially learned. w is
// left alone: a workflow already planned or run has a frozen job table.
func (r *Recorder) Apply(w *workflow.Workflow) (*workflow.Workflow, int) {
	learned, updated := w.Clone(), 0
	for i := range learned.Jobs {
		j := &learned.Jobs[i]
		if d, ok := r.Estimate(j.Name, cluster.MapSlot); ok && j.Maps > 0 {
			j.MapTime = d
			updated++
		}
		if d, ok := r.Estimate(j.Name, cluster.ReduceSlot); ok && j.Reduces > 0 {
			j.ReduceTime = d
			updated++
		}
	}
	return learned, updated
}
