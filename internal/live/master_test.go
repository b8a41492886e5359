package live_test

import (
	"context"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/priority"
	"repro/internal/scheduler"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// driveScripted runs a deterministic single-driver heartbeat script against
// a cluster: every round completes the previous round's assignments and
// offers the given slots, until a round with nothing to complete is assigned
// nothing. With split, a round reports its completions on a heartbeat of its
// own, with no free slot, and offers the slots on the next. It returns the
// full assignment stream in arrival order.
func driveScripted(t *testing.T, c *live.Cluster, freeMaps, freeReds int, split bool) []live.Assignment {
	t.Helper()
	var stream []live.Assignment
	var held []live.TaskID
	for round := 0; ; round++ {
		if round > 10000 {
			t.Fatal("scripted drive did not converge")
		}
		hb := live.Heartbeat{Tracker: 0, FreeMaps: freeMaps, FreeReds: freeReds, Completed: held}
		if split && len(held) > 0 {
			if out := c.DeliverHeartbeat(live.Heartbeat{Tracker: 0, Completed: held}); len(out) != 0 {
				t.Fatalf("a report with no free slot was assigned %d tasks", len(out))
			}
			hb.Completed = nil
		}
		out := c.DeliverHeartbeat(hb)
		if len(out) == 0 && len(held) == 0 {
			return stream
		}
		held = held[:0]
		for _, a := range out {
			stream = append(stream, a)
			held = append(held, a.ID)
		}
	}
}

// TestReportsSplitFromOffersMatch: a heartbeat that reports completions and
// offers slots is served as a completion-only report followed by the offer
// at the same instant, which is how the differential (TestLiveMatchesSimulator)
// replays the simulator. Under FIFO and a serial script the master must
// hand out the same assignment stream both ways, so that what the
// differential pins holds for the TaskTrackers' combined reports too.
func TestReportsSplitFromOffersMatch(t *testing.T) {
	var want []live.Assignment
	for _, split := range []bool{false, true} {
		c, err := live.New(fastConfig(), scheduler.NewFIFO())
		if err != nil {
			t.Fatal(err)
		}
		c.StepClock()
		for _, w := range []*workflow.Workflow{
			chainFlow("w1", 0, 2*time.Hour),
			chainFlow("w2", 0, 2*time.Hour),
			chainFlow("w3", 0, 2*time.Hour),
		} {
			if err := c.Submit(w, nil); err != nil {
				t.Fatal(err)
			}
		}
		got := driveScripted(t, c, 2, 1, split)
		if !split {
			if len(got) != 3*14 {
				t.Fatalf("combined reports: stream has %d assignments, want 42", len(got))
			}
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("split reports: assignment stream diverges from the combined reports' (%d vs %d assignments)", len(got), len(want))
		}
	}
}

// TestConcurrentDirectHeartbeats hammers the master with concurrent
// DeliverHeartbeat callers that assign and complete tasks, then drains
// serially and checks nothing was lost. Run under -race this covers the
// synchronization between the locked step and the fast path.
func TestConcurrentDirectHeartbeats(t *testing.T) {
	c, err := live.New(fastConfig(), scheduler.NewFIFO())
	if err != nil {
		t.Fatal(err)
	}
	const flows = 8
	for i := 0; i < flows; i++ {
		w := workflow.NewBuilder("w").
			Job("j", 6, 2, 10*time.Second, 20*time.Second).
			MustBuild(0, simtime.Epoch.Add(time.Hour))
		if err := c.Submit(w, nil); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 4
	leftovers := make([][]live.TaskID, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(tr int) {
			defer wg.Done()
			var held []live.TaskID
			for i := 0; i < 300; i++ {
				hb := live.Heartbeat{Tracker: tr, Completed: held}
				// Alternate busy reports (fast path) with slot offers.
				if i%2 == 0 {
					hb.FreeMaps, hb.FreeReds = 2, 1
				}
				held = held[:0]
				for _, a := range c.DeliverHeartbeat(hb) {
					held = append(held, a.ID)
				}
			}
			leftovers[tr] = held
		}(g)
	}
	wg.Wait()

	// Complete whatever the workers still held, then drain to completion.
	var held []live.TaskID
	for _, l := range leftovers {
		held = append(held, l...)
	}
	for round := 0; ; round++ {
		if round > 10000 {
			t.Fatal("drain did not converge")
		}
		out := c.DeliverHeartbeat(live.Heartbeat{
			Tracker: 0, FreeMaps: 8, FreeReds: 4, Completed: held,
		})
		if len(out) == 0 && len(held) == 0 {
			break
		}
		held = held[:0]
		for _, a := range out {
			held = append(held, a.ID)
		}
	}

	// Every workflow finished, so Run returns the final snapshot instantly.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksStarted != flows*8 {
		t.Errorf("TasksStarted = %d, want %d", res.TasksStarted, flows*8)
	}
	for _, w := range res.Workflows {
		if w.Finish == 0 {
			t.Errorf("%s never finished", w.Name)
		}
	}
}

// TestConcurrentReportsAnsweredToTheirCaller: many goroutines' heartbeats
// contend for the tracker's one lock, and each books its own report under
// it. Every caller must get its own answer and every task be handed out
// once: half the callers offer only map slots and half only reduce slots, so
// an answer delivered to the wrong caller shows as the wrong slot type, and
// each caller completes exactly what it was given, so a lost or doubled
// answer shows in the totals.
func TestConcurrentReportsAnsweredToTheirCaller(t *testing.T) {
	c, err := live.New(fastConfig(), scheduler.NewFIFO())
	if err != nil {
		t.Fatal(err)
	}
	const flows, maps, reds = 64, 12, 6
	for i := 0; i < flows; i++ {
		w := workflow.NewBuilder("w").
			Job("j", maps, reds, 10*time.Second, 20*time.Second).
			MustBuild(0, simtime.Epoch.Add(time.Hour))
		if err := c.Submit(w, nil); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 8
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		seen  = map[live.TaskID]int{}
		wrong int
		// retired counts tasks reported complete; the callers stop when it
		// reaches the corpus.
		retired atomic.Int64
	)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(tr int) {
			defer wg.Done()
			var held []live.TaskID
			mine := map[live.TaskID]int{}
			bad := 0
			for round := 0; retired.Load() < flows*(maps+reds); round++ {
				if round > 5_000_000 {
					t.Errorf("tracker %d gave up with %d tasks retired", tr, retired.Load())
					break
				}
				hb := live.Heartbeat{Tracker: tr, Completed: append([]live.TaskID(nil), held...)}
				if tr%2 == 0 {
					hb.FreeMaps = 2
				} else {
					hb.FreeReds = 2
				}
				out := c.DeliverHeartbeat(hb)
				retired.Add(int64(len(held)))
				held = held[:0]
				for _, a := range out {
					if (a.ID.Type == cluster.MapSlot) != (tr%2 == 0) {
						bad++
					}
					mine[a.ID]++
					held = append(held, a.ID)
				}
			}
			mu.Lock()
			for id, n := range mine {
				seen[id] += n
			}
			wrong += bad
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	if wrong > 0 {
		t.Errorf("%d assignments of a slot type their caller did not offer", wrong)
	}
	if len(seen) != flows*(maps+reds) {
		t.Errorf("%d distinct tasks handed out, want %d", len(seen), flows*(maps+reds))
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("task %+v handed out %d times", id, n)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range res.Workflows {
		if w.Finish == 0 {
			t.Errorf("%s never finished", w.Name)
		}
	}
}

// TestSubmitAfterStartErrs: a Submit that arrives after a heartbeat has
// stamped the clock is refused with an error, and the running tracker is
// left as it was — the drain assigns only the first workflow's tasks and the
// result lists only it.
func TestSubmitAfterStartErrs(t *testing.T) {
	c, err := live.New(fastConfig(), scheduler.NewFIFO())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(chainFlow("w", 0, time.Hour), nil); err != nil {
		t.Fatal(err)
	}
	// Freeze registration the way tests and benchmarks do: a direct
	// heartbeat stamps the clock.
	c.DeliverHeartbeat(live.Heartbeat{Tracker: 0})
	err = c.Submit(chainFlow("late", 0, time.Hour), nil)
	if err == nil || !strings.Contains(err.Error(), `"late" after the cluster started`) {
		t.Fatalf("late Submit err = %v, want a refusal naming the workflow", err)
	}
	if got := len(driveScripted(t, c, 2, 1, false)); got != 14 {
		t.Errorf("drain assigned %d tasks, want the first workflow's 14", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	res, err := c.Run(ctx)
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workflows) != 1 || res.Workflows[0].Name != "w" || res.Workflows[0].Finish == 0 || res.TasksStarted != 14 {
		t.Errorf("result after a refused Submit = %+v", res)
	}
}

// TestRefillSizedByNodeNotByReport: the assignment slice is allocated once
// per refill, after the lock is gone, for exactly what was assigned. A report is unchecked RPC input, so absurd free counts must
// neither panic nor size the allocation.
func TestRefillSizedByNodeNotByReport(t *testing.T) {
	c, err := live.New(fastConfig(), scheduler.NewFIFO())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(chainFlow("w", 0, time.Hour), nil); err != nil {
		t.Fatal(err)
	}
	out := c.DeliverHeartbeat(live.Heartbeat{Tracker: 0, FreeMaps: math.MaxInt, FreeReds: -3})
	if len(out) != 6 || cap(out) > 8 {
		t.Errorf("got %d assignments in a slice of capacity %d, want job a's 6 maps and no more room than they needed", len(out), cap(out))
	}
}

// deferOnce is an admission controller that postpones its first ruling by a
// fixed interval and admits from then on, recording when it was asked.
type deferOnce struct {
	mu      sync.Mutex
	by      time.Duration
	rulings []simtime.Time
}

func (d *deferOnce) Name() string { return "defer-once" }

func (d *deferOnce) Decide(_ *workflow.Workflow, _ *plan.Plan, now simtime.Time) admission.Decision {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.rulings = append(d.rulings, now)
	if len(d.rulings) == 1 {
		return admission.Decision{Verdict: admission.Defer, RetryAt: now.Add(d.by)}
	}
	return admission.Decision{Verdict: admission.Admit}
}

func (d *deferOnce) Complete(*workflow.Workflow, simtime.Time) {}

func (d *deferOnce) count() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.rulings)
}

// TestIdleGateNeverSwallowsWork: the master's idle heartbeats return
// before reading the clock, so everything that waits on the clock must keep
// them out of that exit. A workflow released in the future and then deferred
// at the door is driven by busy-only heartbeats alone — no completions, no
// free slots, no instrumentation — and must still be ruled on twice, at its
// release and at its retry instant, and then reach the policy.
func TestIdleGateNeverSwallowsWork(t *testing.T) {
	door := &deferOnce{by: 20 * time.Second}
	cfg := fastConfig()
	cfg.Admission = door
	c, err := live.New(cfg, scheduler.NewFIFO())
	if err != nil {
		t.Fatal(err)
	}
	// 20 virtual seconds are 4ms of wall time at fastConfig's scale.
	release := 20 * time.Second
	if err := c.Submit(chainFlow("later", release, 2*time.Hour), nil); err != nil {
		t.Fatal(err)
	}
	busy := live.Heartbeat{Tracker: 0}
	if out := c.DeliverHeartbeat(busy); out != nil || door.count() != 0 {
		t.Fatalf("first heartbeat: %d assignments, %d rulings, want none before the release", len(out), door.count())
	}
	giveUp := time.Now().Add(10 * time.Second)
	for door.count() < 2 {
		if time.Now().After(giveUp) {
			t.Fatalf("busy-only heartbeats produced %d rulings, want 2 (release, then retry)", door.count())
		}
		if out := c.DeliverHeartbeat(busy); out != nil {
			t.Fatalf("busy heartbeat was handed %d assignments", len(out))
		}
	}
	door.mu.Lock()
	at := append([]simtime.Time(nil), door.rulings...)
	door.mu.Unlock()
	if at[0] < simtime.Epoch.Add(release) || at[1] < at[0].Add(door.by) {
		t.Errorf("rulings at %v, want the first at or after the release (%v) and the second %v later", at, release, door.by)
	}
	// Admitted: the workflow's root job is now the policy's to hand out.
	if out := c.DeliverHeartbeat(live.Heartbeat{Tracker: 1, FreeMaps: 2}); len(out) != 2 {
		t.Errorf("offer after admission got %d assignments, want 2", len(out))
	}
	// With nothing left waiting on the clock the same busy report is idle;
	// it must still be a well-formed empty answer.
	if out := c.DeliverHeartbeat(busy); out != nil {
		t.Errorf("idle heartbeat returned %d assignments", len(out))
	}
}

// TestIdleHeartbeatsStillRecorded: the idle exit is for the uninstrumented
// tracker only. With Obs attached every heartbeat, idle or not, is counted,
// timed and emitted, and idle ones are tallied as fast-path beats.
func TestIdleHeartbeatsStillRecorded(t *testing.T) {
	ring := obs.NewRing(1 << 10)
	ins := obs.New(obs.NewRegistry(), ring)
	cfg := fastConfig()
	cfg.Obs = ins
	c, err := live.New(cfg, scheduler.NewFIFO())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(chainFlow("w", 0, time.Hour), nil); err != nil {
		t.Fatal(err)
	}
	// The first report releases w and assigns into both offered slots; the
	// tracker is then idle for busy reports.
	if out := c.DeliverHeartbeat(live.Heartbeat{Tracker: 0, FreeMaps: 2}); len(out) != 2 {
		t.Fatalf("first heartbeat got %d assignments, want 2", len(out))
	}
	const idle = 25
	for i := 0; i < idle; i++ {
		c.DeliverHeartbeat(live.Heartbeat{Tracker: 1})
	}
	if got := ins.Heartbeats.Value(); got != idle+1 {
		t.Errorf("heartbeats counted = %d, want %d", got, idle+1)
	}
	if got := ins.HeartbeatDur.Count(); got != idle+1 {
		t.Errorf("latency histogram has %d samples, want %d", got, idle+1)
	}
	if got := ring.CountKind(obs.KindHeartbeatServed); got != idle+1 {
		t.Errorf("%d heartbeat_served events, want %d", got, idle+1)
	}
	if got := c.LiveStats().FastPathBeats.Value(); got != idle {
		t.Errorf("fast-path heartbeats = %d, want %d", got, idle)
	}
}

// TestFastPathAndLockWaitMetrics checks the master's dedicated instruments:
// every instrumented heartbeat is either a fast-path beat or a wait for the
// lock, never both and never neither.
func TestFastPathAndLockWaitMetrics(t *testing.T) {
	ins := obs.New(obs.NewRegistry(), nil)
	cfg := fastConfig()
	cfg.Obs = ins
	c, err := live.New(cfg, scheduler.NewFIFO())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(chainFlow("w", 0, time.Hour), nil); err != nil {
		t.Fatal(err)
	}
	st := c.LiveStats()

	stream := driveScripted(t, c, 2, 1, false)
	if len(stream) != 14 {
		t.Fatalf("assignment stream has %d entries, want 14", len(stream))
	}
	// Busy heartbeats with nothing to report ride the lock-free fast path.
	for i := 0; i < 5; i++ {
		c.DeliverHeartbeat(live.Heartbeat{Tracker: 1})
	}
	if got := st.FastPathBeats.Value(); got < 5 {
		t.Errorf("fast-path heartbeats = %d, want >= 5", got)
	}
	fast, locked, delivered := st.FastPathBeats.Value(), st.LockWait.Count(), ins.Heartbeats.Value()
	if locked == 0 || fast+locked != delivered {
		t.Errorf("%d fast-path heartbeats and %d lock waits, want %d heartbeats delivered between them, some locked", fast, locked, delivered)
	}
}

// TestLockedReportAllocs pins what a report that takes the lock allocates,
// uninstrumented: a completion-only report nothing, and a report assigned
// one to eight tasks exactly one slice, its answer. The answer is built on
// the stack under the lock and copied out once the lock is gone.
func TestLockedReportAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime inflates allocation counts")
	}
	c, err := live.New(fastConfig(), scheduler.NewFIFO())
	if err != nil {
		t.Fatal(err)
	}
	w := workflow.NewBuilder("w").
		Job("j", 1024, 1, time.Second, time.Second).
		MustBuild(0, simtime.Epoch.Add(time.Hour))
	if err := c.Submit(w, nil); err != nil {
		t.Fatal(err)
	}
	// The first report releases the workflow and starts 64 maps, so the
	// completions below never finish the map phase.
	if out := c.DeliverHeartbeat(live.Heartbeat{FreeMaps: 64}); len(out) != 64 {
		t.Fatalf("the first report got %d assignments, want 64", len(out))
	}
	// Completions are checked by count: any running map of job 0 retires
	// one.
	done := live.Heartbeat{Completed: []live.TaskID{{Job: 0, Type: cluster.MapSlot}}}
	if n := testing.AllocsPerRun(20, func() { c.DeliverHeartbeat(done) }); n != 0 {
		t.Errorf("a completion-only report allocates %v, want 0", n)
	}
	for k := 1; k <= 8; k++ {
		var out []live.Assignment
		n := testing.AllocsPerRun(20, func() { out = c.DeliverHeartbeat(live.Heartbeat{FreeMaps: k}) })
		if len(out) != k || n != 1 {
			t.Errorf("a report assigned %d of %d offered allocates %v, want 1", len(out), k, n)
		}
	}
}

// BenchmarkIdleHeartbeat is live_drain's commonest report in isolation: a
// busy TaskTracker (no completions, no free slots) heartbeating an
// uninstrumented master whose workflows have all been released — seven in
// eight of that workload's heartbeats. `go test -bench IdleHeartbeat
// -cpuprofile` shows what such a report pays for.
func BenchmarkIdleHeartbeat(b *testing.B) {
	c, err := live.New(fastConfig(), core.NewScheduler(core.Options{Seed: 7}))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		w := chainFlow("w", 0, 2*time.Hour)
		p, err := plan.GenerateCapped(w, 12, priority.LPF{})
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Submit(w, p); err != nil {
			b.Fatal(err)
		}
	}
	// One refill releases every workflow.
	c.DeliverHeartbeat(live.Heartbeat{Tracker: 0, FreeMaps: 2, FreeReds: 1})
	hb := live.Heartbeat{Tracker: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := c.DeliverHeartbeat(hb); out != nil {
			b.Fatal("busy heartbeat was assigned work")
		}
	}
}
