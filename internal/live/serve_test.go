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

// TestBookedInstantsNeverRegress: a heartbeat reads its instant before it
// waits for the lock, so a report can reach the locked step with an instant
// earlier than one already booked. It must be booked at the later one: the
// step serves a report at t2, then one at t1 < t2 that completes the task
// the first was assigned and offers a slot, and every event the second
// report emits, its completion and its assignment, carries t2.
func TestBookedInstantsNeverRegress(t *testing.T) {
	ring := obs.NewRing(64)
	cfg := Config{
		Nodes: 1, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1,
		HeartbeatInterval: time.Millisecond, TimeScale: 1, Obs: obs.New(nil, ring),
	}
	c, err := New(cfg, scheduler.NewFIFO())
	if err != nil {
		t.Fatal(err)
	}
	w := workflow.NewBuilder("w").
		Job("j", 2, 1, time.Second, time.Second).
		MustBuild(0, simtime.Epoch.Add(time.Hour))
	if err := c.Submit(w, nil); err != nil {
		t.Fatal(err)
	}
	m := c.jt
	m.ensureClock()
	clk := m.clock.Load()
	t1, t2 := simtime.Epoch.Add(time.Minute), simtime.Epoch.Add(2*time.Minute)

	first, at := m.serve(Heartbeat{FreeMaps: 1}, t2, clk)
	if len(first) != 1 || at != t2 {
		t.Fatalf("the report at %v got %d assignments booked at %v, want 1 at %v", t2, len(first), at, t2)
	}
	seen := ring.Total()
	second, at := m.serve(Heartbeat{FreeMaps: 1, Completed: []TaskID{first[0].ID}}, t1, clk)
	if len(second) != 1 || at != t2 {
		t.Errorf("the report at %v got %d assignments booked at %v, want 1 at %v", t1, len(second), at, t2)
	}
	events := ring.Events()[seen:]
	kinds := map[obs.Kind]int{}
	for _, e := range events {
		kinds[e.Kind]++
		if e.Time != t2 {
			t.Errorf("the second report's %v event carries %v, want %v", e.Kind, e.Time, t2)
		}
	}
	if kinds[obs.KindTaskCompleted] != 1 || kinds[obs.KindTaskAssigned] != 1 {
		t.Errorf("the second report emitted %v, want one completion and one assignment", kinds)
	}
}

// BenchmarkTwoDrivers drains a small WOHA corpus the way the benchmark's
// live_drain workload drains its large one: one driver goroutine per
// GOMAXPROCS, each owning a stripe of TaskTrackers and sending each tracker
// rounds of one refill (its held completions, 2 + 2 free slots) and seven
// busy reports. One iteration is one drain of the corpus. It reports the
// cost per heartbeat, so a change to the locked step can be compared in
// seconds:
//
//	go test -run '^$' -bench TwoDrivers -count 10 ./internal/live/
//
// The tracker is uninstrumented, so every busy report keeps its idle exit.
func BenchmarkTwoDrivers(b *testing.B) {
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
	var beats int64
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
		b.StartTimer()
		n, err := drainRounds(c, nodes, drivers, total)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		beats += n
	}
	b.ReportMetric(float64(b.Elapsed())/float64(beats), "ns/heartbeat")
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
