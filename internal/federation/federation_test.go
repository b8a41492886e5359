package federation_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/refsim"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/priority"
	"repro/internal/scheduler"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// fedFlows is a workload shaped to cross every SubmitLive path: DAG-bearing
// workflows, a same-instant release pair (injection order among ties), and a
// long arrival gap that forces the drained-run heartbeat suppression before
// the next workflow lands mid-run.
func fedFlows() []*workflow.Workflow {
	mk := func(name string, release, deadline simtime.Time) *workflow.Workflow {
		return workflow.NewBuilder(name).
			Job("a", 12, 4, 30*time.Second, 60*time.Second).
			Job("b", 8, 2, 25*time.Second, 50*time.Second, "a").
			Job("c", 6, 3, 20*time.Second, 40*time.Second, "a").
			Job("d", 4, 2, 15*time.Second, 30*time.Second, "b", "c").
			MustBuild(release, deadline)
	}
	small := func(name string, release, deadline simtime.Time) *workflow.Workflow {
		return workflow.NewBuilder(name).
			Job("a", 10, 3, 40*time.Second, 30*time.Second).
			Job("b", 5, 2, 20*time.Second, 25*time.Second, "a").
			MustBuild(release, deadline)
	}
	return []*workflow.Workflow{
		mk("w1", 0, simtime.FromSeconds(900)),
		small("w2", simtime.FromSeconds(20), simtime.FromSeconds(700)),
		// Same-release pair: routing and injection order must stay stable.
		small("w3", simtime.FromSeconds(60), simtime.FromSeconds(500)),
		mk("w4", simtime.FromSeconds(60), simtime.FromSeconds(1100)),
		// Long gap: members drain fully and park their heartbeat grids
		// before this one arrives.
		small("w5", simtime.FromSeconds(2400), simtime.FromSeconds(3000)),
		mk("w6", simtime.FromSeconds(2450), simtime.FromSeconds(3600)),
	}
}

func fedConfig(seed int64) cluster.Config {
	return cluster.Config{
		Nodes: 6, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1,
		HeartbeatInterval: 3 * time.Second,
		Noise:             0.3, Seed: seed,
	}
}

type fedScheduler struct {
	name string
	make func() cluster.Policy
	prio priority.Policy
}

func fedSchedulers() []fedScheduler {
	return []fedScheduler{
		{"EDF", func() cluster.Policy { return scheduler.NewEDF() }, nil},
		{"WOHA-LPF", func() cluster.Policy {
			return core.NewScheduler(core.Options{Seed: 11, PolicyName: priority.LPF{}.Name()})
		}, priority.LPF{}},
	}
}

func fedPlans(t *testing.T, flows []*workflow.Workflow, cfg cluster.Config, prio priority.Policy) []*plan.Plan {
	t.Helper()
	plans := make([]*plan.Plan, len(flows))
	if prio == nil {
		return plans
	}
	caps := plan.Caps{Maps: cfg.MapSlots(), Reduces: cfg.ReduceSlots()}
	for i, w := range flows {
		p, err := plan.GenerateCappedTyped(w, caps, prio, 0.85)
		if err != nil {
			t.Fatalf("plan %s: %v", w.Name, err)
		}
		plans[i] = p
	}
	return plans
}

// sortedByRelease returns flow indices in the stable release order the
// federation routes in.
func sortedByRelease(flows []*workflow.Workflow) []int {
	order := make([]int, len(flows))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return flows[order[a]].Release < flows[order[b]].Release
	})
	return order
}

// TestSingleClusterEquivalence pins the tentpole acceptance criterion: a
// one-member federation at snapshot staleness 0 produces a member Result
// byte-identical to a plain cluster.Sim run of the same workload — SubmitLive
// mid-run injection is indistinguishable from pre-run Submit — and both equal
// the reference simulator's. The member's heartbeat-mode nodes are asleep
// beside running work when w2 to w4 arrive and parked when w5 does; the ties
// variant drops the noise and sets the submitter delay to the interval, so
// activations and arrivals land on sleepers' own grid points.
func TestSingleClusterEquivalence(t *testing.T) {
	flows := fedFlows()
	order := sortedByRelease(flows)
	type variant struct{ spec, fail, ties bool }
	var variants []variant
	for _, spec := range []bool{false, true} {
		for _, fail := range []bool{false, true} {
			for _, ties := range []bool{false, true} {
				variants = append(variants, variant{spec, fail, ties})
			}
		}
	}
	for _, sched := range fedSchedulers() {
		for _, v := range variants {
			name := fmt.Sprintf("%s/spec=%v/fail=%v", sched.name, v.spec, v.fail)
			if v.ties {
				name += "/ties"
			}
			t.Run(name, func(t *testing.T) {
				cfg := fedConfig(7)
				if v.ties {
					cfg.Noise = 0
					cfg.SubmitterOverhead = cfg.HeartbeatInterval
				}
				if v.spec {
					cfg.SpeculativeSlowdown = 1.3
					cfg.StragglerProb = 0.15
					cfg.StragglerFactor = 4
				}
				if v.fail {
					cfg.Failures = []cluster.Failure{
						{Node: 1, At: simtime.FromSeconds(45), Downtime: 60 * time.Second},
						{Node: 4, At: simtime.FromSeconds(90)}, // permanent
					}
				}
				plans := fedPlans(t, flows, cfg, sched.prio)

				plainSim, err := cluster.New(cfg, sched.make(), nil)
				if err != nil {
					t.Fatal(err)
				}
				ordered := make([]*workflow.Workflow, len(order))
				orderedPlans := make([]*plan.Plan, len(order))
				for k, i := range order {
					ordered[k], orderedPlans[k] = flows[i], plans[i]
					if err := plainSim.Submit(flows[i], plans[i]); err != nil {
						t.Fatal(err)
					}
				}
				plain, err := plainSim.Run()
				if err != nil {
					t.Fatal(err)
				}
				plainSim.Release()

				ref, err := refsim.Run(cfg, sched.make(), nil, ordered, orderedPlans)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(plain, ref) {
					t.Errorf("plain run diverged from the reference simulator:\nplain: %+v\nref:   %+v", plain, ref)
				}

				memberSim, err := cluster.New(cfg, sched.make(), nil)
				if err != nil {
					t.Fatal(err)
				}
				ins := obs.New(obs.NewRegistry(), nil)
				memberSim.SetInstrumentation(ins)
				fed, err := federation.New(federation.Config{
					Router:          &federation.RoundRobin{},
					SnapshotRefresh: 0,
				}, []*cluster.Simulator{memberSim})
				if err != nil {
					t.Fatal(err)
				}
				for i, w := range flows {
					if err := fed.Submit(w, plans[i]); err != nil {
						t.Fatal(err)
					}
				}
				res, err := fed.Run()
				if err != nil {
					t.Fatal(err)
				}
				memberSim.Release()

				if !reflect.DeepEqual(plain, res.Clusters[0]) {
					t.Errorf("federated N=1 diverged from plain run:\nplain: %+v\nfed:   %+v",
						plain, res.Clusters[0])
				}
				if ins.SimHeartbeatsSuppressed("quiescent").Value() == 0 {
					t.Error("no node of the member ever slept; the injections met only ticking nodes")
				}
				for _, rt := range res.Routes {
					if rt.SnapshotAge != 0 {
						t.Errorf("staleness 0 recorded snapshot age %v for %s",
							rt.SnapshotAge, rt.Workflow)
					}
				}
			})
		}
	}
}

// TestRoundRobinMatchesPartitionedRuns cross-checks multi-member injection:
// a 3-member round-robin federation must produce, per member, exactly the
// Result of a plain simulator run over that member's routed partition.
func TestRoundRobinMatchesPartitionedRuns(t *testing.T) {
	flows := fedFlows()
	order := sortedByRelease(flows)
	const n = 3
	for _, sched := range fedSchedulers() {
		t.Run(sched.name, func(t *testing.T) {
			cfg := fedConfig(7)
			plans := fedPlans(t, flows, cfg, sched.prio)

			sims := make([]*cluster.Simulator, n)
			for i := range sims {
				var err error
				if sims[i], err = cluster.New(cfg, sched.make(), nil); err != nil {
					t.Fatal(err)
				}
			}
			fed, err := federation.New(federation.Config{
				Router:          &federation.RoundRobin{},
				SnapshotRefresh: 30 * time.Second,
			}, sims)
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range flows {
				if err := fed.Submit(w, plans[i]); err != nil {
					t.Fatal(err)
				}
			}
			res, err := fed.Run()
			if err != nil {
				t.Fatal(err)
			}

			for member := 0; member < n; member++ {
				sim, err := cluster.New(cfg, sched.make(), nil)
				if err != nil {
					t.Fatal(err)
				}
				for pos, i := range order {
					if pos%n != member {
						continue
					}
					if err := sim.Submit(flows[i], plans[i]); err != nil {
						t.Fatal(err)
					}
				}
				want, err := sim.Run()
				if err != nil {
					t.Fatal(err)
				}
				sim.Release()
				if !reflect.DeepEqual(want, res.Clusters[member]) {
					t.Errorf("member %d diverged from its partitioned plain run:\nplain: %+v\nfed:   %+v",
						member, want, res.Clusters[member])
				}
			}
			if got := len(res.Workflows); got != len(flows) {
				t.Fatalf("merged %d workflow rows, want %d", got, len(flows))
			}
			for pos, rt := range res.Routes {
				if want := flows[order[pos]].Name; rt.Workflow != want {
					t.Errorf("route %d = %s, want %s", pos, rt.Workflow, want)
				}
				if res.Workflows[pos].Name != rt.Workflow {
					t.Errorf("merged row %d = %s, want %s", pos,
						res.Workflows[pos].Name, rt.Workflow)
				}
			}
		})
	}
}

// TestFederationDeterminism pins the reproducibility criterion: same seed,
// same router, same staleness ⇒ byte-identical routing log and outcomes.
func TestFederationDeterminism(t *testing.T) {
	flows := fedFlows()
	for _, routerName := range federation.RouterNames() {
		t.Run(routerName, func(t *testing.T) {
			once := func() *federation.Result {
				sched := fedSchedulers()[1] // WOHA-LPF
				cfg := fedConfig(7)
				plans := fedPlans(t, flows, cfg, sched.prio)
				sims := make([]*cluster.Simulator, 3)
				for i := range sims {
					var err error
					if sims[i], err = cluster.New(cfg, sched.make(), nil); err != nil {
						t.Fatal(err)
					}
				}
				router, err := federation.NewRouter(routerName)
				if err != nil {
					t.Fatal(err)
				}
				fed, err := federation.New(federation.Config{
					Router:          router,
					SnapshotRefresh: 2 * time.Minute,
				}, sims)
				if err != nil {
					t.Fatal(err)
				}
				for i, w := range flows {
					if err := fed.Submit(w, plans[i]); err != nil {
						t.Fatal(err)
					}
				}
				res, err := fed.Run()
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range sims {
					s.Release()
				}
				return res
			}
			first, second := once(), once()
			if !reflect.DeepEqual(first.Routes, second.Routes) {
				t.Errorf("routing log diverged:\nfirst:  %+v\nsecond: %+v",
					first.Routes, second.Routes)
			}
			if !reflect.DeepEqual(first.MissVector(), second.MissVector()) {
				t.Errorf("miss vector diverged:\nfirst:  %v\nsecond: %v",
					first.MissVector(), second.MissVector())
			}
			if !reflect.DeepEqual(first, second) {
				t.Errorf("results diverged:\nfirst:  %+v\nsecond: %+v", first, second)
			}
		})
	}
}

// TestSnapshotAgeBounded checks the staleness contract: every recorded
// decision age stays below the refresh interval (a view at least that old is
// retaken before the router sees it).
func TestSnapshotAgeBounded(t *testing.T) {
	flows := fedFlows()
	const refresh = 90 * time.Second
	sims := make([]*cluster.Simulator, 2)
	for i := range sims {
		var err error
		if sims[i], err = cluster.New(fedConfig(7), scheduler.NewEDF(), nil); err != nil {
			t.Fatal(err)
		}
	}
	fed, err := federation.New(federation.Config{
		Router:          federation.LeastLoaded{},
		SnapshotRefresh: refresh,
	}, sims)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range flows {
		if err := fed.Submit(w, nil); err != nil {
			t.Fatal(err)
		}
	}
	res, err := fed.Run()
	if err != nil {
		t.Fatal(err)
	}
	sawStale := false
	for _, rt := range res.Routes {
		if rt.SnapshotAge >= refresh {
			t.Errorf("route of %s decided on a view %v old, refresh interval %v",
				rt.Workflow, rt.SnapshotAge, refresh)
		}
		if rt.SnapshotAge > 0 {
			sawStale = true
		}
	}
	if !sawStale {
		t.Error("workload never exercised a stale snapshot; weaken the test or tighten releases")
	}
}

func loadSnap(backlog time.Duration, mapSlots, reduceSlots int) federation.Snapshot {
	return federation.Snapshot{Load: cluster.Load{
		Backlog: backlog, MapSlots: mapSlots, ReduceSlots: reduceSlots,
	}}
}

func TestRoundRobinCycles(t *testing.T) {
	r := &federation.RoundRobin{}
	snaps := make([]federation.Snapshot, 3)
	for i, want := range []int{0, 1, 2, 0, 1} {
		if got := r.Route(nil, nil, snaps); got != want {
			t.Fatalf("route %d = %d, want %d", i, got, want)
		}
	}
}

func TestLeastLoadedNormalizesBySlots(t *testing.T) {
	snaps := []federation.Snapshot{
		loadSnap(100*time.Second, 4, 1),  // 20s per slot
		loadSnap(120*time.Second, 10, 2), // 10s per slot: least loaded
		loadSnap(120*time.Second, 10, 2), // tie loses to lower index
	}
	if got := (federation.LeastLoaded{}).Route(nil, nil, snaps); got != 1 {
		t.Fatalf("least-loaded chose %d, want 1", got)
	}
}

func TestSlackAwarePrefersFeasibleCluster(t *testing.T) {
	w := workflow.NewBuilder("w").
		Job("a", 4, 2, 30*time.Second, 30*time.Second).
		MustBuild(0, simtime.FromSeconds(300))
	snaps := []federation.Snapshot{
		loadSnap(1200*time.Second, 4, 2), // 200s wait: would blow the deadline
		loadSnap(120*time.Second, 4, 2),  // 20s wait: plenty of slack
	}
	if got := (federation.SlackAware{}).Route(w, nil, snaps); got != 1 {
		t.Fatalf("slack router chose %d, want 1", got)
	}
	// With a plan, the standalone makespan replaces the serial-work estimate
	// but the backlog ordering still dominates here.
	p := &plan.Plan{Makespan: 60 * time.Second}
	if got := (federation.SlackAware{}).Route(w, p, snaps); got != 1 {
		t.Fatalf("slack router with plan chose %d, want 1", got)
	}
}
