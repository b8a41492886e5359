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

// layout is one control plane under comparison: the single-mutex referee or
// the master.
type layout struct {
	name string
	ref  bool
}

// layouts lists the referee first, then the master: the equivalence tests
// take the referee's outcome as the reference and demand it from the master.
var layouts = []layout{{name: "reference", ref: true}, {name: "tracker"}}

// build makes the layout's cluster from cfg.
func (l layout) build(t testing.TB, cfg live.Config, pol cluster.Policy) *live.Cluster {
	t.Helper()
	newCluster := live.New
	if l.ref {
		newCluster = live.NewReference
	}
	c, err := newCluster(cfg, pol)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

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

// TestShardedMatchesLegacyScripted pins outcome equivalence in the strongest
// form: under a time-independent policy (FIFO ignores the clock) and a
// serial heartbeat script, the master must produce the single-mutex
// referee's assignment stream byte for byte, both when each heartbeat
// reports its completions and offers slots at once and when the two are
// split over heartbeats, so that completions arrive with no slot to fill.
func TestShardedMatchesLegacyScripted(t *testing.T) {
	var want []live.Assignment
	for i, tc := range []struct {
		layout
		split bool
	}{{layouts[0], false}, {layouts[1], false}, {layouts[1], true}} {
		c := tc.build(t, fastConfig(), scheduler.NewFIFO())
		for _, w := range []*workflow.Workflow{
			chainFlow("w1", 0, 2*time.Hour),
			chainFlow("w2", 0, 2*time.Hour),
			chainFlow("w3", 0, 2*time.Hour),
		} {
			if err := c.Submit(w, nil); err != nil {
				t.Fatal(err)
			}
		}
		got := driveScripted(t, c, 2, 1, tc.split)
		if i == 0 {
			if len(got) != 3*14 {
				t.Fatalf("reference stream has %d assignments, want 42", len(got))
			}
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("%s (split %v): assignment stream diverges from the reference (%d vs %d assignments)",
				tc.name, tc.split, len(got), len(want))
		}
	}
}

// TestShardedEquivalenceAcrossShardCounts runs the same seeded WOHA workload
// to completion on the referee and on the master and checks the per-workflow
// deadline outcomes agree: timing in the live cluster is noisy, but with
// these margins every workflow must meet its deadline identically on both.
func TestShardedEquivalenceAcrossShardCounts(t *testing.T) {
	flows := func() []*workflow.Workflow {
		return []*workflow.Workflow{
			chainFlow("w1", 0, 2*time.Hour),
			chainFlow("w2", 10*time.Second, 2*time.Hour),
			chainFlow("w3", 20*time.Second, 2*time.Hour),
		}
	}
	var baseline []bool
	for _, l := range layouts {
		c := l.build(t, fastConfig(), core.NewScheduler(core.Options{Seed: 7}))
		for _, w := range flows() {
			p, err := plan.GenerateCapped(w, 12, priority.LPF{})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Submit(w, p); err != nil {
				t.Fatal(err)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		res, err := c.Run(ctx)
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		if res.TasksStarted != 3*14 {
			t.Errorf("%s: TasksStarted = %d, want 42", l.name, res.TasksStarted)
		}
		met := make([]bool, len(res.Workflows))
		for i, w := range res.Workflows {
			if w.Finish == 0 {
				t.Errorf("%s: %s never finished", l.name, w.Name)
			}
			met[i] = w.Met
		}
		if baseline == nil {
			baseline = met
			continue
		}
		if !reflect.DeepEqual(met, baseline) {
			t.Errorf("%s deadline outcomes %v differ from the reference's %v", l.name, met, baseline)
		}
	}
}

// TestShardedConcurrentDirectHeartbeats hammers the master with concurrent
// DeliverHeartbeat callers that assign and complete tasks, then drains
// serially and checks nothing was lost. Run under -race this covers the
// pipeline/fast-path synchronization.
func TestShardedConcurrentDirectHeartbeats(t *testing.T) {
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

// TestPipelineAnswersItsOwnCaller: heartbeats bound for the pipeline queue
// their reports and whichever holds the policy-core lock serves the whole
// queue, so a report is often answered by another goroutine's heartbeat.
// Every caller must still get its own answer and every task be handed out
// once: half the callers offer only map slots and half only reduce slots, so
// an answer delivered to the wrong caller shows as the wrong slot type, and
// each caller completes exactly what it was given, so a lost or doubled
// answer shows in the totals.
func TestPipelineAnswersItsOwnCaller(t *testing.T) {
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

// TestShardedRunWithTrackers runs the full TaskTracker goroutine cluster on
// the master.
func TestShardedRunWithTrackers(t *testing.T) {
	c, err := live.New(fastConfig(), scheduler.NewFIFO())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []*workflow.Workflow{
		chainFlow("w1", 0, 2*time.Hour),
		chainFlow("w2", 10*time.Second, 2*time.Hour),
	} {
		if err := c.Submit(w, nil); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksStarted != 2*14 {
		t.Errorf("TasksStarted = %d, want 28", res.TasksStarted)
	}
	for _, w := range res.Workflows {
		if !w.Met {
			t.Errorf("%s missed a two-hour deadline (finish %v)", w.Name, w.Finish)
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
// per refill, after the pipeline's locks are gone, for exactly what was
// assigned. A report is unchecked RPC input, so absurd free counts must
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

// TestShardedObsMetrics checks the master's dedicated instruments:
// fast-path accounting for busy heartbeats and the pipeline's passes and
// orders.
func TestShardedObsMetrics(t *testing.T) {
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
	// One driver never finds another heartbeat's report queued, so every
	// pass through the pipeline serves exactly its own.
	passes, orders := st.PipelinePasses.Value(), st.PipelineOrders.Value()
	if passes == 0 || orders != passes {
		t.Errorf("serial script: %d pipeline passes served %d reports, want one each", passes, orders)
	}
}

// BenchmarkShardedIdleHeartbeat is live_drain's commonest report in
// isolation: a busy TaskTracker (no completions, no free slots) heartbeating
// an uninstrumented master whose workflows have all been released — seven in
// eight of that workload's heartbeats. `go test -bench ShardedIdleHeartbeat
// -cpuprofile` shows what such a report pays for.
func BenchmarkShardedIdleHeartbeat(b *testing.B) {
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
