package live

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/priority"
	"repro/internal/scheduler"
	"repro/internal/simtime"
	"repro/internal/workflow"
	"repro/internal/workload"
)

// heartbeatDeadline bounds each heartbeat of TestPipelineServedWhenHomeLeaves,
// as the parity harness bounds each cell: a waiter that never gets its answer
// fails its own heartbeat by name instead of the package at go test's
// -timeout. A heartbeat takes microseconds; the bound is for a slow race run.
const heartbeatDeadline = 2 * time.Second

// TestPipelineServedWhenHomeLeaves: a waiter whose order is not the home's
// leaves a free policy-core lock alone for a grace, so that the home's next
// refill serves both orders. The grace must be bounded: here the home makes
// one pipelined heartbeat and its goroutine exits holding the home's pooled
// order, so no later order can be the home's, and a second goroutine's
// pipelined heartbeats must each still be answered — the first by taking the
// lock once the grace is out, the rest as the new home.
func TestPipelineServedWhenHomeLeaves(t *testing.T) {
	cfg := Config{
		Nodes: 2, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1, HeartbeatInterval: time.Millisecond,
		// The virtual clock stands still for the first wall second at this
		// scale, so the home that left never looks stale: what ends the
		// second goroutine's wait is the grace's bound, not pipeHomeFresh.
		TimeScale: 1e9,
	}
	c, err := New(cfg, scheduler.NewFIFO())
	if err != nil {
		t.Fatal(err)
	}
	const maps = 256
	w := workflow.NewBuilder("w").
		Job("j", maps, 1, time.Second, time.Second).
		MustBuild(0, simtime.Epoch.Add(time.Hour))
	if err := c.Submit(w, nil); err != nil {
		t.Fatal(err)
	}
	st := c.jt
	st.stats = obs.New(obs.NewRegistry(), nil).NewLiveStats()
	offer := func(tracker int) Heartbeat { return Heartbeat{Tracker: tracker, FreeMaps: 1} }

	// The first goroutine becomes home, then takes its order back out of the
	// pool and leaves with it. Under -race the pool drops some puts, so it
	// may take a few heartbeats to leave holding the home's order.
	left := make(chan *pipeReq)
	go func() {
		for try := 0; try < 64; try++ {
			c.DeliverHeartbeat(offer(0))
			r := pipeReqs.Get().(*pipeReq)
			if r == st.core.home.Load() {
				left <- r
				return
			}
			pipeReqs.Put(r)
		}
		left <- nil
	}()
	gone := <-left
	if gone == nil {
		t.Fatal("the first goroutine never left holding the home's order")
	}

	const beats = 16
	answers := make(chan int)
	go func() {
		for i := 0; i < beats; i++ {
			answers <- len(c.DeliverHeartbeat(offer(1)))
		}
	}()
	for i := 0; i < beats; i++ {
		timer := time.NewTimer(heartbeatDeadline)
		select {
		case n := <-answers:
			timer.Stop()
			if n != 1 {
				t.Errorf("heartbeat %d of the second goroutine got %d assignments, want 1", i, n)
			}
		case <-timer.C:
			t.Fatalf("heartbeat %d of the second goroutine still unanswered after %v: the grace for a home that left is not bounded", i, heartbeatDeadline)
		}
	}
	if h := st.core.home.Load(); h == gone {
		t.Error("the order that left is still home")
	}
	if got := st.stats.PipelineHandoffs.Value(); got < 1 {
		t.Errorf("%d pipeline handoffs, want the second goroutine's takeover counted", got)
	}
}

// BenchmarkPipelineTwoDrivers drains a small WOHA corpus the way the
// benchmark's live_drain workload drains its large one: one driver goroutine
// per GOMAXPROCS, each owning a stripe of TaskTrackers and sending each
// tracker rounds of one refill (its held completions, 2 + 2 free slots) and
// seven busy reports. One iteration is one drain of the corpus. It reports
// the cost per heartbeat and how often a pipeline pass was combined away
// from the previous pass's home (handoffs per drain), so a change to the
// combining pipeline can be compared in seconds:
//
//	go test -run '^$' -bench PipelineTwoDrivers -count 10 ./internal/live/
//
// The tracker carries the live-tracker counters only — no Obs, so every
// busy report keeps its idle exit — which costs the pipelined heartbeats
// two clock reads each. This corpus's state fits in one core's cache, so a
// handoff costs less here than on live_drain's: the handoff count shows a
// change to the pipeline more plainly than the time does.
func BenchmarkPipelineTwoDrivers(b *testing.B) {
	ycfg := workload.DefaultYahooConfig()
	ycfg.ReleaseWindow = 0
	all, err := workload.Yahoo(ycfg)
	if err != nil {
		b.Fatal(err)
	}
	flows := workload.MultiJob(all)
	const nodes = 64
	plans := make([]*plan.Plan, len(flows))
	total := int64(0)
	for i, w := range flows {
		if plans[i], err = plan.GenerateCapped(w, nodes*4, priority.LPF{}); err != nil {
			b.Fatal(err)
		}
		total += int64(w.TotalTasks())
	}
	// Every driver owns at least one tracker.
	drivers := min(runtime.GOMAXPROCS(0), nodes)
	cfg := Config{
		Nodes: nodes, MapSlotsPerNode: 2, ReduceSlotsPerNode: 2,
		HeartbeatInterval: time.Millisecond, TimeScale: 0.001,
	}
	var beats, handoffs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := New(cfg, core.NewScheduler(core.Options{Seed: 1, PolicyName: priority.LPF{}.Name()}))
		if err != nil {
			b.Fatal(err)
		}
		for j, w := range flows {
			if err := c.Submit(w, plans[j]); err != nil {
				b.Fatal(err)
			}
		}
		stats := obs.New(obs.NewRegistry(), nil).NewLiveStats()
		c.jt.stats = stats
		b.StartTimer()
		n, err := drainRounds(c, nodes, drivers, total)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		beats += n
		handoffs += stats.PipelineHandoffs.Value()
	}
	b.ReportMetric(float64(b.Elapsed())/float64(beats), "ns/heartbeat")
	b.ReportMetric(float64(handoffs)/float64(b.N), "handoffs/drain")
}

// drainRounds drives c with the given number of driver goroutines until
// total tasks have been assigned and reported done, and returns how many
// heartbeats that took.
func drainRounds(c *Cluster, nodes, drivers int, total int64) (int64, error) {
	const busyPerRefill = 7
	var (
		retired, beats atomic.Int64
		stalled        atomic.Bool
		wg             sync.WaitGroup
	)
	giveUp := time.Now().Add(10 * time.Second)
	for d := 0; d < drivers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			// This driver owns trackers d, d+drivers, d+2·drivers, …
			own := (nodes - d + drivers - 1) / drivers
			held := make([][]TaskID, own)
			n := int64(0)
			defer func() { beats.Add(n) }()
			for round := 0; retired.Load() < total; round++ {
				if round&0xfff == 0 && time.Now().After(giveUp) {
					stalled.Store(true)
					return
				}
				t := round % own
				for i := 0; i <= busyPerRefill; i++ {
					hb := Heartbeat{Tracker: d + t*drivers}
					if i == 0 {
						hb.FreeMaps, hb.FreeReds = 2, 2
						hb.Completed = append([]TaskID(nil), held[t]...)
						held[t] = held[t][:0]
					}
					for _, a := range c.DeliverHeartbeat(hb) {
						held[t] = append(held[t], a.ID)
					}
					n++
					if k := int64(len(hb.Completed)); k > 0 {
						retired.Add(k)
					}
				}
			}
		}(d)
	}
	wg.Wait()
	if stalled.Load() {
		return 0, fmt.Errorf("drain stalled with %d of %d tasks retired", retired.Load(), total)
	}
	return beats.Load(), nil
}
