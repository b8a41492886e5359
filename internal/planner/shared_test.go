package planner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
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
	"repro/internal/simtime"
	"repro/internal/workflow"
	"repro/internal/workload"
)

// gated is HLF whose first Rank call — the leader's, since only a generation
// ranks — waits for the gate and then does first (fail, panic, or nothing),
// so a test can hold a flight open while another request joins it.
type gated struct {
	priority.HLF
	gate  chan struct{}
	calls atomic.Int32
	first func() error
}

func (g *gated) Rank(w *workflow.Workflow) ([]int, error) {
	if g.calls.Add(1) == 1 {
		<-g.gate
		if g.first != nil {
			if err := g.first(); err != nil {
				return nil, err
			}
		}
	}
	return g.HLF.Rank(w)
}

// shape returns a distinct two-job workflow per i.
func shape(i int) *workflow.Workflow {
	return workflow.NewBuilder(fmt.Sprintf("shape-%d", i)).
		Job("extract", 40+i, 8, 30*time.Second, 60*time.Second).
		Job("load", 20, 4, 20*time.Second, 45*time.Second, "extract").
		MustBuild(simtime.Epoch, simtime.Epoch.Add(2*time.Hour))
}

// heldFlight is what one held flight came to.
type heldFlight struct {
	pl             *Planner
	w              *workflow.Workflow
	pol            *gated
	leader, waiter *plan.Plan
	leaderErr      error
	leaderPanic    any
	waiterErr      error
}

// holdFlight starts a generation whose ranking is held at a gate, sends a
// second request for the same key while it is held, opens the gate, and hands
// both outcomes to check. The second request is given every chance to join
// the flight but nothing can observe that it has; when the counters say it
// arrived after the flight settled instead, the whole thing is retried on a
// fresh planner and key. A request still blocked 10 s after the gate opened
// fails the test: that is the hang this file exists to rule out.
func holdFlight(t *testing.T, first func() error, check func(f *heldFlight)) {
	t.Helper()
	for attempt := 0; attempt < 50; attempt++ {
		f := &heldFlight{
			pl:  New(Config{CacheSize: 4, Obs: obs.New(obs.NewRegistry(), nil)}),
			w:   shape(attempt),
			pol: &gated{gate: make(chan struct{}), first: first},
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer func() { f.leaderPanic = recover() }()
			f.leader, f.leaderErr = f.pl.Plan(f.w, testCluster, f.pol)
		}()
		for f.pol.calls.Load() == 0 {
			runtime.Gosched()
		}
		about := make(chan struct{})
		go func() {
			defer wg.Done()
			close(about)
			f.waiter, f.waiterErr = f.pl.Plan(f.w, testCluster, f.pol)
		}()
		<-about
		for i := 0; i < 1000; i++ {
			runtime.Gosched()
		}
		close(f.pol.gate)
		settled := make(chan struct{})
		go func() { wg.Wait(); close(settled) }()
		select {
		case <-settled:
		case <-time.After(10 * time.Second):
			t.Fatal("a request is still blocked 10 s after its flight's leader was released")
		}
		if got := f.pl.Stats().Inflight.Value(); got != 0 {
			t.Fatalf("Inflight = %d once every request returned, want 0", got)
		}
		if f.pl.Stats().Coalesced.Value() == 1 {
			check(f)
			return
		}
	}
	t.Fatal("no request coalesced onto a held flight in 50 attempts")
}

func sameBacking(a, b *plan.Plan) bool {
	return &a.Ranks[0] == &b.Ranks[0] && &a.Reqs[0] == &b.Reqs[0]
}

// TestServedPlansAreShared is the contract that replaced "the cache hands out
// independent copies": the leader, a coalesced waiter and a later hit for one
// key all read the same Ranks and Reqs arrays, only the leader's header says
// how many simulations ran, and Clone is how a caller gets a plan it may
// write.
func TestServedPlansAreShared(t *testing.T) {
	holdFlight(t, nil, func(f *heldFlight) {
		if f.leaderPanic != nil || f.leaderErr != nil || f.waiterErr != nil {
			t.Fatalf("leader error %v panic %v, waiter error %v", f.leaderErr, f.leaderPanic, f.waiterErr)
		}
		leader, waiter := f.leader, f.waiter
		hit, err := f.pl.Plan(f.w, testCluster, priority.HLF{})
		if err != nil {
			t.Fatal(err)
		}
		if leader.SearchIters < 2 {
			t.Errorf("leader's SearchIters = %d, want the simulations it ran", leader.SearchIters)
		}
		if waiter.SearchIters != 0 || waiter.ProbesCut != 0 || hit.SearchIters != 0 || hit.ProbesCut != 0 {
			t.Errorf("waiter %d/%d and hit %d/%d SearchIters/ProbesCut, want 0: they ran no simulation",
				waiter.SearchIters, waiter.ProbesCut, hit.SearchIters, hit.ProbesCut)
		}
		if waiter != hit {
			t.Error("the coalesced waiter and the hit were handed different plans, want the one cached value")
		}
		if leader == hit || !sameBacking(leader, hit) {
			t.Error("the leader's plan must be its own header over the arrays everyone else reads")
		}
		want := hit.Encode()
		c := hit.Clone()
		if sameBacking(c, hit) {
			t.Fatal("Clone shares backing arrays with the served plan")
		}
		c.Reqs[0].Cum = 1 << 30
		c.Ranks[0] = -1
		if again, _ := f.pl.Plan(f.w, testCluster, priority.HLF{}); !bytes.Equal(again.Encode(), want) {
			t.Error("writing to a Clone reached the cached plan")
		}
	})
}

// TestLeaderPanicReleasesWaiters: a generation that panics must not strand
// the requests coalesced onto it. The waiter gets an error naming the request,
// the panic reaches the leader's caller, nothing stays in flight or in the
// cache, and the next request for the key plans normally.
func TestLeaderPanicReleasesWaiters(t *testing.T) {
	holdFlight(t, func() error { panic("rank exploded") }, func(f *heldFlight) {
		if f.leaderPanic != "rank exploded" {
			t.Errorf("leader's caller recovered %v, want the policy's panic", f.leaderPanic)
		}
		if f.waiterErr == nil || !strings.Contains(f.waiterErr.Error(), "policy HLF caps 300/180") {
			t.Errorf("waiter's error = %v, want one naming the request", f.waiterErr)
		}
		st := f.pl.Stats()
		if st.Plans.Value() != 0 || st.CacheMisses.Value() != 0 || f.pl.CacheLen() != 0 {
			t.Errorf("Plans %d, CacheMisses %d, CacheLen %d after a panicked generation, want all 0",
				st.Plans.Value(), st.CacheMisses.Value(), f.pl.CacheLen())
		}
		p, err := f.pl.Plan(f.w, testCluster, f.pol)
		if err != nil || p.SearchIters < 2 {
			t.Errorf("retry after the panic: plan %+v, error %v, want a freshly generated plan", p, err)
		}
	})
}

// TestCoalescedErrorCounted: a waiter whose flight failed did wait instead of
// simulating, so it counts as coalesced — but not as a plan served.
func TestCoalescedErrorCounted(t *testing.T) {
	errRank := errors.New("no ranking today")
	holdFlight(t, func() error { return errRank }, func(f *heldFlight) {
		if !errors.Is(f.leaderErr, errRank) || !errors.Is(f.waiterErr, errRank) {
			t.Errorf("leader error %v, waiter error %v, want both the generation's", f.leaderErr, f.waiterErr)
		}
		st := f.pl.Stats()
		if st.Plans.Value() != 0 || st.CacheMisses.Value() != 0 || f.pl.CacheLen() != 0 {
			t.Errorf("Plans %d, CacheMisses %d, CacheLen %d after a failed generation, want all 0",
				st.Plans.Value(), st.CacheMisses.Value(), f.pl.CacheLen())
		}
	})
}

// TestSharedPlansNeverWritten is the proof that sharing is safe. Four
// goroutines share one Planner; each takes the plans of the same recurring
// templates through a cluster.Sim under the WOHA scheduler behind a feasible
// admission.Controller, and through the live tracker, while a fifth
// keeps requesting the same keys and re-reading what it is handed. Under
// -race a write by any consumer is a reported race; in any build, every plan
// handed out must still encode to the bytes it encoded to when first served.
func TestSharedPlansNeverWritten(t *testing.T) {
	const consumers = 4
	templates := []*workflow.Workflow{
		shape(0), shape(1),
		workflow.NewBuilder("diamond").
			Job("a", 6, 2, 10*time.Second, 20*time.Second).
			Job("b", 4, 1, 10*time.Second, 30*time.Second, "a").
			Job("c", 8, 3, 5*time.Second, 15*time.Second, "a").
			Job("d", 2, 1, 10*time.Second, 10*time.Second, "b", "c").
			MustBuild(simtime.Epoch, simtime.Epoch.Add(time.Hour)),
	}
	nodes := cluster.Config{Nodes: 4, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1}
	caps := plan.Caps{Maps: 8, Reduces: 4}
	pol := priority.LPF{}
	pl := New(Config{Workers: 2, CacheSize: 64})

	var mu sync.Mutex
	firstServed := map[*plan.Plan][]byte{}
	serve := func(w *workflow.Workflow) (*plan.Plan, error) {
		p, err := pl.Plan(w, caps, pol)
		if err != nil {
			return nil, err
		}
		enc := p.Encode()
		mu.Lock()
		defer mu.Unlock()
		if was, ok := firstServed[p]; !ok {
			firstServed[p] = enc
		} else if !bytes.Equal(enc, was) {
			return nil, fmt.Errorf("plan for %s no longer encodes as when first served", w.Name)
		}
		return p, nil
	}

	consume := func(g int) error {
		var flows []*workflow.Workflow
		var plans []*plan.Plan
		for _, tmpl := range templates {
			for _, w := range workload.Recur(tmpl, 2, 10*time.Minute) {
				w.Name = fmt.Sprintf("g%d-%s", g, w.Name)
				p, err := serve(w)
				if err != nil {
					return err
				}
				flows, plans = append(flows, w), append(plans, p)
			}
		}
		ctrl, err := admission.New(admission.Config{Cluster: caps, Mode: admission.ModeFeasible, Policy: pol})
		if err != nil {
			return err
		}
		sim, err := cluster.New(nodes, core.NewScheduler(core.Options{Seed: int64(g)}), nil)
		if err != nil {
			return err
		}
		sim.SetAdmission(ctrl)
		for i, w := range flows {
			if err := sim.Submit(w, plans[i]); err != nil {
				return err
			}
		}
		if _, err := sim.Run(); err != nil {
			return err
		}
		tracker, err := live.New(live.Config{
			Nodes: nodes.Nodes, MapSlotsPerNode: nodes.MapSlotsPerNode, ReduceSlotsPerNode: nodes.ReduceSlotsPerNode,
			HeartbeatInterval: time.Millisecond, TimeScale: 0.0001,
		}, core.NewScheduler(core.Options{Seed: int64(g)}))
		if err != nil {
			return err
		}
		for i, w := range flows {
			if err := tracker.Submit(w, plans[i]); err != nil {
				return err
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_, err = tracker.Run(ctx)
		return err
	}

	stop := make(chan struct{})
	errs := make(chan error, consumers+1)
	var requester, wg sync.WaitGroup
	requester.Add(1)
	go func() {
		defer requester.Done()
		for {
			for _, tmpl := range templates {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := serve(tmpl); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	for g := 0; g < consumers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if err := consume(g); err != nil {
				errs <- fmt.Errorf("consumer %d: %w", g, err)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	requester.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for p, was := range firstServed {
		if !bytes.Equal(p.Encode(), was) {
			t.Errorf("a served plan (cap %d, makespan %v) was written to after it was handed out", p.Cap, p.Makespan)
		}
	}
	if len(firstServed) < 2*len(templates) {
		t.Errorf("%d distinct plans handed out, want at least a leader's and a shared one per template", len(firstServed))
	}
}
