package live_test

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"net/rpc"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/plan"
	"repro/internal/planner"
	"repro/internal/simtime"
	"repro/internal/workflow"
	"repro/internal/workload"
)

// The sim↔live differential. A heartbeat-mode cluster.Simulator runs a
// corpus, and the events it emits are replayed into a live master under the
// stepped clock, each at its own instant:
//
//   - a ruling (an admission verdict, or with no door a workflow's
//     submission) as an empty report, so the master rules what is due then;
//   - a TaskCompleted as a completion-only report from that tracker;
//   - a HeartbeatServed as that tracker's offer of every slot it has free by
//     the replay's own count: its slots, minus the tasks the master assigned
//     it, plus those reported complete.
//
// The master must answer with the simulator's assignment stream (instant,
// tracker, workflow, job, slot type), reach the simulator's outcome for
// every workflow, and its admission door must record the simulator's door's
// rulings. Noise perturbs only the simulator's durations, which the replay
// follows. Speculation, stragglers and node failures have no live
// counterpart and stay off.

// scenario is one cell of the differential.
type scenario struct {
	// nodes TaskTrackers of maps map slots and reds reduce slots each; zero
	// slot counts stand for 2 and 1.
	nodes, maps, reds int
	// noise is the simulator's duration noise (cluster.Config.Noise).
	noise float64
	spec  experiments.SchedulerSpec
	flows []*workflow.Workflow
	// door builds each side's admission controller; nil admits everything.
	// The simulator's is instrumented by o, and its admission events tell
	// the replay when the simulator ruled.
	door func(t testing.TB, o *obs.Obs) admission.Controller
	// tcp builds the live side with NewTCP and replays over a net/rpc client
	// dialed to its listener instead of through DeliverHeartbeat.
	tcp bool
}

// diffHeartbeat is the simulator's heartbeat interval in the differential.
const diffHeartbeat = 3 * time.Second

// config is the cell's simulated cluster.
func (sc scenario) config() cluster.Config {
	return cluster.Config{
		Nodes:              sc.nodes,
		MapSlotsPerNode:    cmp.Or(sc.maps, 2),
		ReduceSlotsPerNode: cmp.Or(sc.reds, 1),
		HeartbeatInterval:  diffHeartbeat,
		Noise:              sc.noise,
		Seed:               1,
	}
}

// placement is one entry of an assignment stream.
type placement struct {
	at      simtime.Time
	tracker int
	wf, job int
	slot    cluster.SlotType
}

func (p placement) String() string {
	return fmt.Sprintf("%v tracker %d: workflow %d job %d %v", p.at, p.tracker, p.wf, p.job, p.slot)
}

// eventLog keeps, in emission order, the simulator's events the replay
// reads. Only the simulator, on one goroutine, emits into it.
type eventLog struct{ events []obs.Event }

func (l *eventLog) Emit(e obs.Event) {
	switch e.Kind {
	case obs.KindWorkflowSubmitted, obs.KindAdmissionAdmitted, obs.KindAdmissionDeferred,
		obs.KindAdmissionRejected, obs.KindTaskAssigned, obs.KindTaskCompleted, obs.KindHeartbeatServed:
		l.events = append(l.events, e)
	}
}

// differential is one cell in progress: the simulator, stepped by the test,
// and the master, replayed up to wherever the simulator stands.
type differential struct {
	t   testing.TB
	sim *cluster.Simulator
	log *eventLog
	c   *live.Cluster
	// deliver sends one report to the master and returns its answer.
	deliver func(live.Heartbeat) []live.Assignment
	// clock is the master's stepped clock.
	clock *atomic.Int64
	// simObs instruments the simulator; liveObs, the master's, is nil
	// unless both track health (newDifferential).
	simObs, liveObs   *obs.Obs
	simDoor, liveDoor admission.Controller
	// free counts each tracker's free map and reduce slots; replayed counts
	// the simulator's events replayed so far.
	free     [][2]int
	replayed int
	// simStream and liveStream are the two assignment streams.
	simStream, liveStream []placement
}

// newDifferential builds both sides of sc and submits its corpus to each;
// with health, each side's Obs tracks deadline health, snapshotting only
// when asked (SnapshotAt).
func newDifferential(t testing.TB, sc scenario, health bool) *differential {
	t.Helper()
	cc := sc.config()
	var plans []*plan.Plan
	if sc.spec.IsWOHA() {
		var err error
		if plans, err = experiments.PlansFactory(sc.flows, cc, sc.spec, planner.New(planner.Config{}))(); err != nil {
			t.Fatal(err)
		}
	}
	d := &differential{t: t, log: &eventLog{}, free: make([][2]int, sc.nodes)}
	for i := range d.free {
		d.free[i] = [2]int{cc.MapSlotsPerNode, cc.ReduceSlotsPerNode}
	}
	d.simObs = obs.New(nil, d.log)
	if health {
		d.liveObs = obs.New(nil, nil)
		for _, o := range []*obs.Obs{d.simObs, d.liveObs} {
			o.EnableHealth(obs.HealthConfig{Interval: 1000 * time.Hour})
		}
	}
	if sc.door != nil {
		d.simDoor, d.liveDoor = sc.door(t, d.simObs), sc.door(t, nil)
	}
	sim, err := cluster.New(cc, sc.spec.New(1, nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	sim.SetInstrumentation(d.simObs)
	if d.simDoor != nil {
		sim.SetAdmission(d.simDoor)
	}
	d.sim = sim
	newLive := live.New
	if sc.tcp {
		newLive = live.NewTCP
	}
	d.c, err = newLive(live.Config{
		Nodes:              cc.Nodes,
		MapSlotsPerNode:    cc.MapSlotsPerNode,
		ReduceSlotsPerNode: cc.ReduceSlotsPerNode,
		HeartbeatInterval:  time.Millisecond,
		TimeScale:          1,
		Obs:                d.liveObs,
		Admission:          d.liveDoor,
	}, sc.spec.New(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	d.clock = d.c.StepClock()
	d.deliver = d.c.DeliverHeartbeat
	if sc.tcp {
		d.deliver = dialJobTracker(t, d.c)
	}
	for i, w := range sc.flows {
		var p *plan.Plan
		if plans != nil {
			p = plans[i]
		}
		if err := sim.Submit(w, p); err != nil {
			t.Fatal(err)
		}
		if err := d.c.Submit(w, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	return d
}

// dialJobTracker dials c's listener (c built with NewTCP) with a net/rpc
// client of its own, as a TaskTracker does, and returns how a report is sent
// over it. The client and c's transport close when the test ends.
func dialJobTracker(t testing.TB, c *live.Cluster) func(live.Heartbeat) []live.Assignment {
	t.Helper()
	t.Cleanup(func() { _ = c.CloseTransport() })
	client, err := rpc.Dial("tcp", c.TransportAddr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	return func(hb live.Heartbeat) []live.Assignment {
		var out []live.Assignment
		if err := client.Call("JobTracker.Heartbeat", hb, &out); err != nil {
			t.Fatalf("heartbeat of tracker %d: %v", hb.Tracker, err)
		}
		return out
	}
}

// stepTo runs the simulator through every instant up to at and replays what
// it emitted into the master.
func (d *differential) stepTo(at simtime.Time) {
	d.sim.StepTo(at)
	for _, e := range d.log.events[d.replayed:] {
		d.replay(e)
	}
	d.replayed = len(d.log.events)
}

// replay delivers one simulator event to the master at the event's instant.
func (d *differential) replay(e obs.Event) {
	d.clock.Store(int64(e.Time))
	hb := live.Heartbeat{}
	switch e.Kind {
	case obs.KindTaskAssigned:
		d.simStream = append(d.simStream, placement{e.Time, e.Tracker, e.Workflow, e.Job, cluster.SlotType(e.Slot)})
		return
	case obs.KindTaskCompleted:
		hb.Tracker = e.Tracker
		hb.Completed = []live.TaskID{{Workflow: e.Workflow, Job: workflow.JobID(e.Job), Type: cluster.SlotType(e.Slot)}}
		d.free[e.Tracker][e.Slot]++
	case obs.KindHeartbeatServed:
		hb.Tracker = e.Tracker
		hb.FreeMaps, hb.FreeReds = d.free[e.Tracker][cluster.MapSlot], d.free[e.Tracker][cluster.ReduceSlot]
	}
	for _, a := range d.deliver(hb) {
		if e.Kind != obs.KindHeartbeatServed {
			d.t.Fatalf("%v: a report with no free slot (%v) was assigned %+v", e.Time, e.Kind, a.ID)
		}
		d.free[hb.Tracker][a.ID.Type]--
		d.liveStream = append(d.liveStream, placement{e.Time, hb.Tracker, a.ID.Workflow, int(a.ID.Job), a.ID.Type})
	}
}

// finish runs both sides to the end and demands the simulator's assignment
// stream, outcomes and admission records from the master. It returns the
// simulator's result.
func (d *differential) finish() *cluster.Result {
	t := d.t
	t.Helper()
	d.stepTo(simtime.MaxTime)
	want, err := d.sim.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if i := firstDiff(d.simStream, d.liveStream); i >= 0 {
		t.Fatalf("assignment %d of %d (simulator) vs %d (live) diverges:\n simulator %v\n live      %v",
			i, len(d.simStream), len(d.liveStream), nth(d.simStream, i), nth(d.liveStream, i))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, err := d.c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.TasksStarted != want.TasksStarted || !reflect.DeepEqual(got.Workflows, want.Workflows) {
		t.Errorf("live outcome (%d tasks) differs from the simulator's (%d tasks):\n live      %+v\n simulator %+v",
			got.TasksStarted, want.TasksStarted, got.Workflows, want.Workflows)
	}
	if d.simDoor != nil {
		want, got := d.simDoor.(decisionAudit).Records(), d.liveDoor.(decisionAudit).Records()
		if i := firstDiff(want, got); i >= 0 {
			t.Errorf("admission record %d of %d (simulator) vs %d (live) diverges:\n simulator %+v\n live      %+v",
				i, len(want), len(got), nth(want, i), nth(got, i))
		}
	}
	return want
}

// firstDiff returns the index of the first entry where a and b differ, -1
// when they are equal.
func firstDiff[T any](a, b []T) int {
	for i := range min(len(a), len(b)) {
		if !reflect.DeepEqual(a[i], b[i]) {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// nth returns s[i], or nil past its end.
func nth[T any](s []T, i int) any {
	if i < len(s) {
		return s[i]
	}
	return nil
}

// mapless is a workflow whose second job has reduces and no maps, so its
// reduces are schedulable the moment it activates.
func mapless(name string, rel simtime.Time, deadline time.Duration) *workflow.Workflow {
	return workflow.NewBuilder(name).
		Job("a", 3, 1, 10*time.Second, 20*time.Second).
		Job("r", 0, 2, 0, 30*time.Second, "a").
		MustBuild(rel, rel.Add(deadline))
}

// diffCorpus is the differential's corpus: the Yahoo population (61
// workflows over 180 jobs, deadlines set against 480 slots) plus one
// workflow with a map-less job.
func diffCorpus(t testing.TB) []*workflow.Workflow {
	t.Helper()
	flows, err := workload.Yahoo(workload.DefaultYahooConfig())
	if err != nil {
		t.Fatal(err)
	}
	return append(flows, mapless("mapless", simtime.Epoch.Add(time.Minute), 30*time.Minute))
}

// tenantDoor is feasible admission on sc's cluster with two tenants:
// "rated" may be admitted once per two virtual minutes, and "tier" holds at
// most half the cluster and sees three quarters of it.
func tenantDoor(sc scenario) func(testing.TB, *obs.Obs) admission.Controller {
	cc := sc.config()
	return func(t testing.TB, o *obs.Obs) admission.Controller {
		ctrl, err := admission.New(admission.Config{
			Cluster: plan.Caps{Maps: cc.MapSlots(), Reduces: cc.ReduceSlots()},
			Mode:    admission.ModeFeasible,
			Tenants: map[string]admission.Tenant{
				"rated": {Rate: 30, Burst: 1},
				"tier":  {Quota: 0.5, Tier: 1},
			},
			Obs: o,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ctrl
	}
}

// withTenants returns copies of flows assigned round robin to the tenants
// "rated", "tier" and none.
func withTenants(flows []*workflow.Workflow) []*workflow.Workflow {
	out := make([]*workflow.Workflow, len(flows))
	for i, w := range flows {
		c := w.Clone()
		c.Tenant = []string{"rated", "tier", ""}[i%3]
		out[i] = c
	}
	return out
}

// TestLiveMatchesSimulator is the differential over its matrix: every
// scheduler, three cluster sizes, no door and a feasible door with a
// rate-limited and a quota/tier tenant, exact and noisy durations, on a
// corpus with a map-less job. The door must defer and reject somewhere in
// the matrix, or its half compared nothing of note. Under -race only the
// 10-node cells run (race_on_test.go).
func TestLiveMatchesSimulator(t *testing.T) {
	flows := diffCorpus(t)
	tenanted := withTenants(flows)
	sizes := []int{10, 40, 160}
	if raceEnabled {
		sizes = sizes[:1]
	}
	var deferred, rejected atomic.Int64
	t.Run("cells", func(t *testing.T) {
		for _, spec := range experiments.AllSchedulers() {
			for _, nodes := range sizes {
				for _, noise := range []float64{0, 0.3} {
					for _, admit := range []bool{false, true} {
						sc := scenario{nodes: nodes, noise: noise, spec: spec, flows: flows}
						if admit {
							sc.flows, sc.door = tenanted, tenantDoor(sc)
						}
						name := fmt.Sprintf("%s/%d-nodes/noise-%v/admission-%v", spec.Name, nodes, noise, admit)
						t.Run(name, func(t *testing.T) {
							t.Parallel()
							d := newDifferential(t, sc, false)
							res := d.finish()
							if len(d.simStream) == 0 {
								t.Fatal("nothing was assigned")
							}
							rejected.Add(int64(res.Rejections()))
							if d.simDoor != nil {
								for _, r := range d.simDoor.(decisionAudit).Records() {
									if r.Decision.Verdict == admission.Defer {
										deferred.Add(1)
									}
								}
							}
						})
					}
				}
			}
		}
	})
	if deferred.Load() == 0 || rejected.Load() == 0 {
		t.Errorf("the door deferred %d and rejected %d rulings over the matrix, want some of each", deferred.Load(), rejected.Load())
	}
}

// TestLiveMatchesSimulatorOverTCP is the differential with the live side
// built by NewTCP and every report sent as a JobTracker.Heartbeat call over
// loopback, so gob encoding and net/rpc stand between the replay and the
// master: every scheduler on 10 nodes with noise 0.3, behind the tenant
// door, with the in-process matrix's assertions.
func TestLiveMatchesSimulatorOverTCP(t *testing.T) {
	flows := withTenants(diffCorpus(t))
	var deferred, rejected atomic.Int64
	t.Run("cells", func(t *testing.T) {
		for _, spec := range experiments.AllSchedulers() {
			sc := scenario{nodes: 10, noise: 0.3, spec: spec, flows: flows, tcp: true}
			sc.door = tenantDoor(sc)
			t.Run(spec.Name, func(t *testing.T) {
				t.Parallel()
				d := newDifferential(t, sc, false)
				res := d.finish()
				if len(d.simStream) == 0 {
					t.Fatal("nothing was assigned")
				}
				rejected.Add(int64(res.Rejections()))
				for _, r := range d.simDoor.(decisionAudit).Records() {
					if r.Decision.Verdict == admission.Defer {
						deferred.Add(1)
					}
				}
			})
		}
	})
	if deferred.Load() == 0 || rejected.Load() == 0 {
		t.Errorf("the door deferred %d and rejected %d rulings over the cells, want some of each", deferred.Load(), rejected.Load())
	}
}

// FuzzLiveMatchesSimulator runs the differential on a cell the input
// chooses: a corpus of up to four oracle.RandomWorkflow DAGs plus one
// workflow with a map-less job, their release times and deadlines, the
// cluster's node and slot counts, the scheduler, the noise, and whether
// feasible admission guards the door.
func FuzzLiveMatchesSimulator(f *testing.F) {
	f.Add([]byte{0, 2, 3, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{3, 4, 1, 1, 9, 0, 40, 200, 3, 17, 60, 1})
	f.Add([]byte{5, 1, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 7, 2, 1, 4, 3, 250, 3, 90, 4, 12, 8, 2, 33, 5})
	specs := experiments.AllSchedulers()
	f.Fuzz(func(t *testing.T, in []byte) {
		b := fuzzBytes(in)
		sc := scenario{spec: specs[int(b.next())%len(specs)]}
		sc.nodes = 1 + int(b.next())%8
		sc.maps, sc.reds = 1+int(b.next())%3, 1+int(b.next())%2
		ctl := b.next()
		n := int(b.next()) % 5
		rng := rand.New(rand.NewSource(int64(b.next())))
		for i := 0; i < n; i++ {
			w := oracle.RandomWorkflow(rng, 1+int(b.next())%4)
			w.Name = fmt.Sprintf("w%d", i)
			w.Release = simtime.Epoch.Add(time.Duration(b.next()) * time.Second)
			w.Deadline = w.Release.Add(time.Duration(1+int(b.next())) * time.Minute)
			sc.flows = append(sc.flows, w)
		}
		sc.flows = append(sc.flows, mapless("mapless", simtime.Epoch.Add(time.Duration(b.next())*time.Second), 20*time.Minute))
		if ctl&1 != 0 {
			sc.noise = 0.3
		}
		if ctl&2 != 0 {
			sc.flows, sc.door = withTenants(sc.flows), tenantDoor(sc)
		}
		newDifferential(t, sc, false).finish()
	})
}

// fuzzBytes decodes fuzz input; reading past the end yields zeros.
type fuzzBytes []byte

func (r *fuzzBytes) next() byte {
	if len(*r) == 0 {
		return 0
	}
	c := (*r)[0]
	*r = (*r)[1:]
	return c
}
