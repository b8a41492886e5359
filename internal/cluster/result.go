package cluster

import (
	"time"

	"repro/internal/simtime"
)

// WorkflowResult records how one workflow fared.
type WorkflowResult struct {
	// Name and Index identify the workflow.
	Name  string
	Index int
	// Release, Deadline, and Finish are the workflow's absolute times.
	Release, Deadline, Finish simtime.Time
	// Workspan is Finish - Release (the paper's per-workflow metric in
	// Fig 11).
	Workspan time.Duration
	// Tardiness is max(0, Finish - Deadline).
	Tardiness time.Duration
	// Met reports whether the deadline was satisfied.
	Met bool
	// Rejected marks a workflow the admission front door turned away; it
	// never ran, so Finish and Workspan are zero and Met is false.
	// RejectReason names the refusing stage and CounterOffer (non-zero only
	// when one was made) the earliest feasible deadline offered back.
	Rejected     bool
	RejectReason string
	CounterOffer simtime.Time
}

// Result aggregates a simulation run.
type Result struct {
	// Policy is the scheduling policy's name.
	Policy string
	// Config echoes the cluster configuration of the run.
	Config Config
	// Workflows holds per-workflow outcomes in arrival order.
	Workflows []WorkflowResult
	// Makespan is the completion time of the last task in the run.
	Makespan simtime.Time
	// MapBusy and ReduceBusy accumulate busy slot-time by type.
	MapBusy, ReduceBusy time.Duration
	// TasksStarted counts every task attempt the run executed (task
	// re-executions after node failures count separately).
	TasksStarted int
	// LocalMaps and RemoteMaps split map assignments by data locality;
	// both are zero when locality modeling is off.
	LocalMaps, RemoteMaps int
	// SimulatedEvents counts the discrete events the run processed — the
	// denominator for ns/simulated-event throughput reporting. In heartbeat
	// mode it includes the ticks of sleeping nodes, which a simulator
	// executing every tick processes and this one only counts.
	SimulatedEvents int
}

func (s *Simulator) result() *Result {
	r := &Result{
		Policy:       s.pol.Name(),
		Config:       s.cfg,
		Makespan:     s.makespan,
		MapBusy:      s.mapBusy,
		ReduceBusy:   s.reduceBusy,
		TasksStarted: s.tasksStarted,
		LocalMaps:    s.localMaps,
		RemoteMaps:   s.remoteMaps,

		SimulatedEvents: s.eventCount,
	}
	if n := len(s.states); n > 0 {
		// Exact-size prealloc; an empty run keeps Workflows nil, as the
		// append-only construction always did.
		r.Workflows = make([]WorkflowResult, 0, n)
	}
	for _, ws := range s.states {
		wr := WorkflowResult{
			Name:     ws.Spec.Name,
			Index:    ws.Index,
			Release:  ws.Spec.Release,
			Deadline: ws.Spec.Deadline,
			Finish:   ws.FinishTime,
		}
		if ws.Rejected {
			wr.Rejected = true
			wr.RejectReason = ws.RejectReason
			wr.CounterOffer = ws.CounterOffer
			r.Workflows = append(r.Workflows, wr)
			continue
		}
		wr.Workspan = wr.Finish.Sub(wr.Release)
		if wr.Finish > wr.Deadline {
			wr.Tardiness = wr.Finish.Sub(wr.Deadline)
		}
		wr.Met = wr.Tardiness == 0
		r.Workflows = append(r.Workflows, wr)
	}
	return r
}

// DeadlineMisses returns the number of workflows that missed their deadline.
func (r *Result) DeadlineMisses() int {
	n := 0
	for _, w := range r.Workflows {
		if !w.Met {
			n++
		}
	}
	return n
}

// MissRatio returns the deadline violation ratio (Fig 8's metric). It is 0
// for an empty run. Rejected workflows count as misses here — from the
// submitter's view their deadline was not met; AdmittedMissRatio excludes
// them.
func (r *Result) MissRatio() float64 {
	if len(r.Workflows) == 0 {
		return 0
	}
	return float64(r.DeadlineMisses()) / float64(len(r.Workflows))
}

// Rejections returns the number of workflows the admission front door turned
// away (always 0 under the default always-admit controller).
func (r *Result) Rejections() int {
	n := 0
	for _, w := range r.Workflows {
		if w.Rejected {
			n++
		}
	}
	return n
}

// AdmittedMissRatio returns the deadline violation ratio among the workflows
// that were actually admitted — the quantity the admission trade-off sweep
// compares against the always-admit MissRatio. It is 0 when nothing was
// admitted.
func (r *Result) AdmittedMissRatio() float64 {
	admitted, missed := 0, 0
	for _, w := range r.Workflows {
		if w.Rejected {
			continue
		}
		admitted++
		if !w.Met {
			missed++
		}
	}
	if admitted == 0 {
		return 0
	}
	return float64(missed) / float64(admitted)
}

// MaxTardiness returns the largest tardiness over all workflows (Fig 9).
func (r *Result) MaxTardiness() time.Duration {
	var m time.Duration
	for _, w := range r.Workflows {
		if w.Tardiness > m {
			m = w.Tardiness
		}
	}
	return m
}

// TotalTardiness returns the summed tardiness over all workflows (Fig 10).
func (r *Result) TotalTardiness() time.Duration {
	var t time.Duration
	for _, w := range r.Workflows {
		t += w.Tardiness
	}
	return t
}

// Utilization returns the fraction of slot-time spent busy between the epoch
// and the makespan, over all slots of both types (Fig 12's metric).
func (r *Result) Utilization() float64 {
	span := r.Makespan.Duration()
	if span == 0 {
		return 0
	}
	capacity := time.Duration(r.Config.TotalSlots()) * span
	return float64(r.MapBusy+r.ReduceBusy) / float64(capacity)
}

// MapUtilization returns busy fraction of map slots only.
func (r *Result) MapUtilization() float64 {
	span := r.Makespan.Duration()
	if span == 0 || r.Config.MapSlots() == 0 {
		return 0
	}
	return float64(r.MapBusy) / float64(time.Duration(r.Config.MapSlots())*span)
}

// ReduceUtilization returns busy fraction of reduce slots only.
func (r *Result) ReduceUtilization() float64 {
	span := r.Makespan.Duration()
	if span == 0 || r.Config.ReduceSlots() == 0 {
		return 0
	}
	return float64(r.ReduceBusy) / float64(time.Duration(r.Config.ReduceSlots())*span)
}
