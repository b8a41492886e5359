package main

import (
	"fmt"
	"time"

	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/workflow"
	"repro/internal/workload"
)

// targetUtilization is the offered load every windowed corpus is pinned to:
// Σ SerialWork / (slots × release window). Numbers taken at unknown load do
// not compare, so the window is derived from this, never chosen.
const targetUtilization = 0.70

// corpusSpec describes one generated population: the paper's Yahoo
// composition (61 workflows / 180 jobs / 15 single-job / at most 12 jobs)
// multiplied by scale, single-job workflows removed.
type corpusSpec struct {
	scale int
	trace trace.Params
	// slots is the capacity the corpus is offered to. The release window is
	// solved from it and targetUtilization; windowed == false releases
	// everything at Epoch instead (drain workloads).
	slots    int
	windowed bool
	// refSlots is the slot count deadlines are negotiated against: each
	// workflow is due stretch ∈ [1.2, 2.8] times its own best-effort
	// makespan alone on refSlots after its release, at least ten minutes.
	refSlots int
}

// corpus is one generated population plus the facts the report prints.
type corpus struct {
	seed  int64
	flows []*workflow.Workflow
	jobs  int
	tasks int
	// serialWork is Σ SerialWork over flows; window the derived release
	// window (0 when everything is released at Epoch); offered the
	// resulting Σ SerialWork / (slots × window).
	serialWork time.Duration
	window     time.Duration
	offered    float64
}

func (s corpusSpec) config(seed int64, window time.Duration) workload.YahooConfig {
	cfg := workload.DefaultYahooConfig()
	cfg.Seed = seed
	cfg.Workflows *= s.scale
	cfg.Jobs *= s.scale
	cfg.SingleJob *= s.scale
	cfg.Trace = s.trace
	cfg.ReleaseWindow = window
	cfg.Scheme = workload.DeadlineStretch
	cfg.ReferenceSlots = s.refSlots
	return cfg
}

// generate builds the population for seed. seed is the only source of
// randomness. A windowed corpus is generated twice: once to measure
// Σ SerialWork, then again with the window that work implies — the draw
// order inside workload.Yahoo does not depend on the window, so both
// generations contain the same workflows.
func (s corpusSpec) generate(seed int64) (*corpus, error) {
	build := func(window time.Duration) ([]*workflow.Workflow, time.Duration, error) {
		all, err := workload.Yahoo(s.config(seed, window))
		if err != nil {
			return nil, 0, err
		}
		flows := workload.MultiJob(all)
		var work time.Duration
		for _, w := range flows {
			work += w.SerialWork()
		}
		return flows, work, nil
	}
	flows, work, err := build(0)
	if err != nil {
		return nil, err
	}
	c := &corpus{seed: seed, serialWork: work}
	if s.windowed {
		c.window = time.Duration(float64(work) / (targetUtilization * float64(s.slots)))
		again, work2, err := build(c.window)
		if err != nil {
			return nil, err
		}
		if work2 != work || len(again) != len(flows) {
			return nil, fmt.Errorf("corpus: regeneration with the derived window changed the population (%v/%d → %v/%d)",
				work, len(flows), work2, len(again))
		}
		flows = again
		c.offered = float64(work) / (float64(s.slots) * float64(c.window))
	}
	c.flows = flows
	for _, w := range flows {
		c.jobs += len(w.Jobs)
		c.tasks += w.TotalTasks()
		if w.Release < simtime.Epoch || w.Deadline <= w.Release {
			return nil, fmt.Errorf("corpus: %s has release %v, deadline %v", w.Name, w.Release, w.Deadline)
		}
	}
	return c, nil
}
