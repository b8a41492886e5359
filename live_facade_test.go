package woha_test

import (
	"context"
	"strings"
	"testing"
	"time"

	woha "repro"
)

func liveCfg() woha.LiveConfig {
	return woha.LiveConfig{
		Nodes:              4,
		MapSlotsPerNode:    2,
		ReduceSlotsPerNode: 1,
		HeartbeatInterval:  2 * time.Millisecond,
		TimeScale:          0.0002,
	}
}

func TestLiveSessionInProcess(t *testing.T) {
	sess, err := woha.NewLiveSession(liveCfg(), woha.SchedulerWOHALPF, false, woha.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(etl(t, "w", 2*time.Hour)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := sess.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadlineMisses() != 0 {
		t.Errorf("missed %d deadlines", res.DeadlineMisses())
	}
	if res.TasksStarted != 96 {
		t.Errorf("TasksStarted = %d, want 96", res.TasksStarted)
	}
}

func TestLiveSessionTCP(t *testing.T) {
	sess, err := woha.NewLiveSession(liveCfg(), woha.SchedulerFIFO, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(etl(t, "w", 2*time.Hour)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := sess.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workflows[0].Finish == 0 {
		t.Error("workflow never finished over TCP")
	}
}

func TestLiveSessionUnknownScheduler(t *testing.T) {
	if _, err := woha.NewLiveSession(liveCfg(), "nope", false); err == nil {
		t.Error("unknown scheduler accepted")
	}
}

// TestLiveSessionHonoursAdmission: WithAdmission reaches the live tracker. On
// one map slot, four 10 s maps cannot meet a 5 s deadline, so the feasible
// front door refuses the workflow with the reason and counter-offer Session
// gives it, instead of the live cluster running it to a miss.
func TestLiveSessionHonoursAdmission(t *testing.T) {
	door := func() woha.AdmissionController {
		ctrl, err := woha.NewAdmission(woha.AdmissionConfig{
			Cluster: woha.PlanCaps{Maps: 1, Reduces: 1},
			Mode:    woha.AdmissionModeFeasible,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ctrl
	}
	tight := func() *woha.Workflow {
		return woha.NewWorkflow("tight").
			Job("scan", 4, 0, 10*time.Second, 0).
			MustBuild(woha.At(0), woha.At(5*time.Second))
	}

	sim, err := woha.NewSession(woha.ClusterConfig{Nodes: 1, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1},
		woha.SchedulerWOHALPF, woha.WithAdmission(door()))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Submit(tight()); err != nil {
		t.Fatal(err)
	}
	simRes, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := simRes.Workflows[0]
	if !want.Rejected {
		t.Fatalf("Session admitted %+v; the scenario needs a refusal", want)
	}

	cfg := liveCfg()
	cfg.Nodes, cfg.MapSlotsPerNode, cfg.ReduceSlotsPerNode = 1, 1, 1
	sess, err := woha.NewLiveSession(cfg, woha.SchedulerWOHALPF, false, woha.WithAdmission(door()))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(tight()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := sess.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Workflows[0]
	if !got.Rejected || got.RejectReason != want.RejectReason || got.CounterOffer != want.CounterOffer {
		t.Errorf("live session outcome %+v, want refused like Session: reason %q, counter-offer %v",
			got, want.RejectReason, want.CounterOffer)
	}
}

// TestLiveSessionSharedPlanner: Submit plans through the session planner, so
// WithPlanner's shared service serves a live session — its cache holds one
// plan after two sessions submit the same workflow.
func TestLiveSessionSharedPlanner(t *testing.T) {
	pl := woha.NewPlanner(woha.PlannerConfig{CacheSize: 8})
	for i := 0; i < 2; i++ {
		sess, err := woha.NewLiveSession(liveCfg(), woha.SchedulerWOHALPF, false, woha.WithPlanner(pl))
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Submit(etl(t, "w", 2*time.Hour)); err != nil {
			t.Fatal(err)
		}
		if got := pl.CacheLen(); got != 1 {
			t.Errorf("session %d: shared planner caches %d plans, want 1", i, got)
		}
	}
}

// TestLiveSessionRefusesUnusableOptions: a front door or instrumentation set
// on the LiveConfig instead of through its option, or an observer the live
// cluster has no way to feed, is an error rather than a setting silently
// dropped.
func TestLiveSessionRefusesUnusableOptions(t *testing.T) {
	cfg := liveCfg()
	cfg.Admission = woha.AlwaysAdmit(nil)
	_, err := woha.NewLiveSession(cfg, woha.SchedulerFIFO, false)
	if err == nil || !strings.Contains(err.Error(), "WithAdmission") {
		t.Errorf("LiveConfig.Admission: err = %v, want it refused naming WithAdmission", err)
	}
	cfg = liveCfg()
	cfg.Obs = woha.NewInstrumentation(woha.NewMetrics(), nil)
	_, err = woha.NewLiveSession(cfg, woha.SchedulerFIFO, false)
	if err == nil || !strings.Contains(err.Error(), "WithInstrumentation") {
		t.Errorf("LiveConfig.Obs: err = %v, want it refused naming WithInstrumentation", err)
	}
	_, err = woha.NewLiveSession(liveCfg(), woha.SchedulerFIFO, false, woha.WithObserver(woha.NewTimeline()))
	if err == nil || !strings.Contains(err.Error(), "WithObserver") {
		t.Errorf("observer: err = %v, want WithObserver refused", err)
	}
}
