package main

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/live"
	"repro/internal/plan"
	"repro/internal/planner"
	"repro/internal/priority"
	"repro/internal/trace"
)

// live_drain is the live control plane under real goroutine contention: the
// only workload where locks and a second core matter. Driver goroutines, one
// per core, each own a disjoint stripe of TaskTracker ids and call
// DeliverHeartbeat directly in the loaded-master mix of
// cmd/wohabench/livebench.go — seven busy reports to one refill — until every
// task of the corpus has been assigned and reported done. The simulator does
// nothing here.
const (
	liveScale = 64
	// liveBusyPerRefill + 1 heartbeats form one round on a tracker: the
	// first reports the held completions and offers 2 + 2 slots, the rest
	// report busy.
	liveBusyPerRefill = 7
	liveStallLimit    = 60 * time.Second
)

type liveDrain struct {
	spec  corpusSpec
	nodes int
	c     *corpus
	plans []*plan.Plan
	// jobBase[i] is workflow i's first slot in the flat per-job count
	// vector (two counters per job: maps, reduces).
	jobBase []int
}

func setupLiveDrain(seed int64, smoke bool) (instance, error) {
	scale := liveScale
	if smoke {
		scale = 1
	}
	l := &liveDrain{nodes: bigNodesPerUnit * scale}
	l.spec = corpusSpec{scale: scale, trace: trace.DefaultParams().Scale(1.0, 0.5), refSlots: l.nodes * 4}
	var err error
	if l.c, err = l.spec.generate(seed); err != nil {
		return nil, err
	}
	pl := planner.New(planner.Config{Workers: procs(), Margin: experiments.PlanMargin})
	l.plans, err = pl.PlanAll(l.c.flows, plan.Caps{Maps: l.nodes * 2, Reduces: l.nodes * 2}, priority.LPF{})
	l.jobBase = make([]int, len(l.c.flows)+1)
	for i, w := range l.c.flows {
		l.jobBase[i+1] = l.jobBase[i] + 2*len(w.Jobs)
	}
	return l, err
}

func (l *liveDrain) describe(w io.Writer) {
	describeCorpus(w, l.c, fmt.Sprintf("live tracker of %d nodes × (2 map + 2 reduce), scale %d, %d drivers", l.nodes, l.spec.scale, procs()))
}

// drainOut is what one drain observed.
type drainOut struct {
	beats, refills, assignments, retired int64
	// perJob counts assignments per (workflow, job, slot type).
	perJob []int32
	hb     agg
	err    error
}

// drain builds a tracker over the corpus and drives it dry. shards and drivers
// are parameters only so the ledger can take its two comparison readings;
// the workload proper always runs Shards: 0 (one per core) with one driver
// per core.
func (l *liveDrain) drain(shards, drivers int, o passOpts) (*drainOut, time.Duration, time.Duration, error) {
	c, plans, base := l.c, l.plans, l.jobBase
	start := time.Now()
	cl, err := live.New(live.Config{
		Nodes: l.nodes, MapSlotsPerNode: 2, ReduceSlotsPerNode: 2,
		HeartbeatInterval: time.Millisecond, TimeScale: 0.001, Shards: shards,
	}, o.pt.policy(newWOHA(c.seed, priority.LPF{})))
	if err != nil {
		return nil, 0, 0, err
	}
	for i, w := range c.flows {
		if err := cl.Submit(w, plans[i]); err != nil {
			return nil, 0, 0, err
		}
	}
	total := int64(c.tasks)
	outs := make([]drainOut, drivers)
	var retired atomic.Int64
	drainNs, _ := o.pt.call("live.drain", func() error {
		var wg sync.WaitGroup
		for d := 0; d < drivers; d++ {
			wg.Add(1)
			go func(d int) {
				defer wg.Done()
				do := &outs[d]
				do.perJob = make([]int32, base[len(base)-1])
				// This driver owns trackers d, d+drivers, d+2·drivers, …
				own := (l.nodes - d + drivers - 1) / drivers
				held := make([][]live.TaskID, own)
				deadline := time.Now().Add(liveStallLimit)
				for round := 0; ; round++ {
					if retired.Load() >= total {
						return
					}
					if round&0xfff == 0 && time.Now().After(deadline) {
						do.err = fmt.Errorf("live_drain: driver %d gave up after %v with %d of %d tasks retired",
							d, liveStallLimit, retired.Load(), total)
						return
					}
					t := round % own
					for i := 0; i <= liveBusyPerRefill; i++ {
						hb := live.Heartbeat{Tracker: d + t*drivers}
						if i == 0 {
							// The tracker reads Completed during the call, and
							// held[t] is refilled right after it: hand over an
							// owned copy (see live.Heartbeat's ownership note).
							hb.FreeMaps, hb.FreeReds = 2, 2
							hb.Completed = append([]live.TaskID(nil), held[t]...)
							held[t] = held[t][:0]
							do.refills++
						}
						var as []live.Assignment
						if o.pt != nil {
							t0 := time.Now()
							as = cl.DeliverHeartbeat(hb)
							do.hb.add(int64(time.Since(t0)))
						} else {
							as = cl.DeliverHeartbeat(hb)
						}
						do.beats++
						if n := int64(len(hb.Completed)); n > 0 {
							do.retired += n
							retired.Add(n)
						}
						for _, a := range as {
							held[t] = append(held[t], a.ID)
							do.perJob[base[a.ID.Workflow]+2*int(a.ID.Job)+int(a.ID.Type)]++
							do.assignments++
						}
					}
				}
			}(d)
		}
		wg.Wait()
		return nil
	})
	wall := time.Since(start)
	sum := &outs[0]
	for d := 1; d < drivers; d++ {
		do := &outs[d]
		sum.beats, sum.refills = sum.beats+do.beats, sum.refills+do.refills
		sum.assignments, sum.retired = sum.assignments+do.assignments, sum.retired+do.retired
		for i, n := range do.perJob {
			sum.perJob[i] += n
		}
		sum.hb.merge(&do.hb)
		if sum.err == nil {
			sum.err = do.err
		}
	}
	return sum, drainNs, wall, sum.err
}

func (l *liveDrain) run(o passOpts) (*passOut, error) {
	c, base := l.c, l.jobBase
	d, drainNs, wall, err := l.drain(0, procs(), o)
	if err != nil {
		return nil, err
	}
	out := &passOut{wall: wall, ops: c.tasks, facts: facts{
		fWorkflows: float64(len(c.flows)), fTasks: float64(c.tasks), fWallNs: float64(wall),
		fBeats: float64(d.beats), fRefills: float64(d.refills), fAssignments: float64(d.assignments),
		fLiveNs: float64(drainNs),
	}}
	// Every task assigned exactly once and retired exactly once: the totals
	// match the corpus and so does every job's own count.
	dg := newDigester()
	if d.assignments != int64(c.tasks) || d.retired != int64(c.tasks) {
		out.fail("%d assigned and %d retired of %d corpus tasks", d.assignments, d.retired, c.tasks)
	}
	for i, w := range c.flows {
		for j := range w.Jobs {
			maps, reds := int(d.perJob[base[i]+2*j]), int(d.perJob[base[i]+2*j+1])
			if maps != w.Jobs[j].Maps || reds != w.Jobs[j].Reduces {
				out.fail("%s job %d ran %d maps and %d reduces, wants %d and %d", w.Name, j, maps, reds, w.Jobs[j].Maps, w.Jobs[j].Reduces)
			}
			dg.int(int64(maps))
			dg.int(int64(reds))
		}
	}
	out.digest = dg.sum()
	if o.pt.collectInto(out); o.pt != nil {
		out.aggs[aggHeartbeat] = &d.hb
	}
	return out, nil
}

const aggHeartbeat = "live.DeliverHeartbeat"

// extras takes the two comparison readings: the same drain on
// the legacy single-mutex tracker, and with a single driver goroutine. Set
// against heartbeats_per_s they say what sharding and the second core buy.
func (l *liveDrain) extras() (map[string]float64, error) {
	legacy, ns1, _, err := l.drain(1, procs(), passOpts{})
	if err != nil {
		return nil, err
	}
	single, ns2, _, err := l.drain(0, 1, passOpts{})
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"live.shards1_heartbeats_per_s": float64(legacy.beats) / ns1.Seconds(),
		"live.driver1_heartbeats_per_s": float64(single.beats) / ns2.Seconds(),
	}, nil
}
