package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"runtime"
	"time"
)

// facts are the additive counts and durations one pass contributes to the
// ledger: everything here can be summed over passes and turned into a ratio
// afterwards. Keys are the f* constants below.
type facts map[string]float64

func (f facts) add(o facts) {
	for k, v := range o {
		f[k] += v
	}
}

// ratio returns f[num]/f[den], 0 when the denominator is 0.
func (f facts) ratio(num, den string) float64 {
	if f[den] == 0 {
		return 0
	}
	return f[num] / f[den]
}

const (
	// Work a pass resolved, by the workload's own account of its input.
	fWorkflows = "workflows"
	fTasks     = "tasks"
	fWallNs    = "wall_ns"

	fPlans          = "plans"
	fPlanHits       = "plan_hits"
	fPlanIters      = "plan_iters"
	fPlanInfeasible = "plan_infeasible"
	fPlannerNs      = "planner_ns"
	fPlanMallocs    = "plan_mallocs"
	fPlanMallocN    = "plan_malloc_plans"

	fDecisions    = "decisions"
	fRejects      = "rejects"
	fAdmitted     = "admitted"
	fAdmittedMiss = "admitted_miss"

	fRoutes    = "routes"
	fMaxRouted = "max_member_routed"
	// fReplayNs is the summed wall of the per-member replays, taken on every
	// untraced pass of a traced front_door run; Federation.Run's wall on the
	// same passes is fSimNs.
	fReplayNs     = "replay_ns"
	fReplayBroken = "replay_mismatches"

	// fSimNs is the wall of the call that owns the simulators (Run, RunAll,
	// Federation.Run); fSimWorkerNs the same times the goroutines running
	// simulators inside it, the base policy time is a share of.
	fEvents       = "events"
	fStarted      = "tasks_started"
	fRanTasks     = "ran_tasks"
	fSimNs        = "sim_ns"
	fSimWorkerNs  = "sim_worker_ns"
	fBusySlotNs   = "busy_slot_ns"
	fCapSlotNs    = "capacity_slot_ns"
	fScenMallocs  = "scenario_mallocs"
	fScenMallocN  = "scenario_malloc_n"
	fMisses       = "misses"
	fResolved     = "resolved"
	fMissPrefix   = "miss."
	fCellWfPrefix = "cellwf."

	fBeats       = "beats"
	fRefills     = "refills"
	fAssignments = "assignments"
	fLiveNs      = "live_ns"
)

// passOut is what one pass hands back.
type passOut struct {
	// wall is the timed region.
	wall time.Duration
	// ops is the workload's operation count (the unit failures are counted
	// in); failed those whose output checks did not hold, with the first few
	// reasons in failures.
	ops, failed int
	failures    []string
	digest      [sha256.Size]byte
	facts       facts
	aggs        map[string]*agg
	// after, when set on a ledger pass, is a further measurement over the
	// pass's results that adds to facts; the harness runs it once the
	// pass's own resource use has been read.
	after func() error
}

func (o *passOut) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 5 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// passOpts selects how a pass runs. A zero value is the plain timed pass of
// an untraced run: the program's own code and nothing else.
type passOpts struct {
	// pt, when non-nil, turns the wrappers on.
	pt *passTrace
	// ledger asks for the measurements that cost time outside the timed
	// region (allocation brackets, the per-member replay). Set on the
	// untraced passes of a --trace 1 run only.
	ledger bool
}

// instance is one workload set up for one seed: its corpus generated, the
// plans that belong to set-up made, ready to run passes over that corpus.
// Pass i of a run gets its own instance, set up (untimed) from seed + i, so a
// run measures as many different corpora as it has passes; the set-up that is
// timed as setup_s is pass 0's, warm-up pass included.
type instance interface {
	// run executes one pass.
	run(o passOpts) (*passOut, error)
	// extras runs the once-per-run side measurements of the ledger and
	// returns them as finished metric values.
	extras() (map[string]float64, error)
	// describe prints the corpus facts.
	describe(w io.Writer)
}

// workloadDef names one workload.
type workloadDef struct {
	name string
	// op names the operation attempted/failed are counted in.
	op    string
	setup func(seed int64, smoke bool) (instance, error)
}

var workloads = []workloadDef{
	{name: "front_door", op: "workflows", setup: setupFrontDoor},
	{name: "fig8_sweep", op: "cells", setup: setupFig8Sweep},
	{name: "big_heartbeat", op: "workflows", setup: setupBigHeartbeat},
	{name: "live_drain", op: "tasks", setup: setupLiveDrain},
	{name: "plan_mix", op: "plans", setup: setupPlanMix},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// procs is the only parallelism knob: workers and drivers are sized from
// the scheduler's own view of the host, and nothing overrides GOMAXPROCS.
func procs() int { return runtime.GOMAXPROCS(0) }

// mallocs reads the process-wide heap allocation count. It stops the world
// for some tens of microseconds, which a ledger pass tolerates (its wall is
// only compared with its traced twin's); a plain timed pass never calls it.
func mallocs() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs)
}

// digester builds an outcome digest field by field.
type digester struct {
	h   hash.Hash
	buf [8]byte
}

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) int(v int64) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
	d.h.Write(d.buf[:])
}

func (d *digester) str(s string) {
	d.int(int64(len(s)))
	io.WriteString(d.h, s)
}

func (d *digester) bool(b bool) {
	if b {
		d.int(1)
	} else {
		d.int(0)
	}
}

func (d *digester) sum() (out [sha256.Size]byte) {
	d.h.Sum(out[:0])
	return out
}
