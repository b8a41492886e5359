package obs

import (
	"strings"
	"testing"
	"time"

	"repro/internal/plan"
	"repro/internal/simtime"
)

// healthPlan builds a plan demanding 2 tasks by ttd=100s, 5 by ttd=50s, and
// all 10 by the deadline, as if simulated to a 120s makespan.
func healthPlan() *plan.Plan {
	return &plan.Plan{
		Reqs:       []plan.Req{{TTD: 100 * time.Second, Cum: 2}, {TTD: 50 * time.Second, Cum: 5}, {TTD: 0, Cum: 10}},
		Cap:        4,
		Makespan:   120 * time.Second,
		TotalTasks: 10,
		Feasible:   true,
	}
}

func sec(n int) simtime.Time { return simtime.Time(time.Duration(n) * time.Second) }

func TestHealthSlackAgainstPlan(t *testing.T) {
	ring := NewRing(256)
	o := New(NewRegistry(), ring)
	h := o.EnableHealth(HealthConfig{Interval: 10 * time.Second})
	if h == nil || o.Health() != h {
		t.Fatal("EnableHealth did not install the tracker")
	}
	h.Register(0, "w0", 0, sec(200), 10, healthPlan())
	h.workflowReleased(0)

	// t=120s → ttd=80s → requirement in force is 2. One completion: slack -1.
	h.taskCompleted(0)
	snap := h.SnapshotAt(sec(120))
	row := snap.Workflows[0]
	if !row.HasPlan || row.Required != 2 || row.Slack != -1 || !row.Behind {
		t.Fatalf("t=120s row = %+v, want required 2, slack -1, behind", row)
	}
	if snap.MinSlack != -1 || snap.Behind != 1 || snap.Live != 1 {
		t.Fatalf("snapshot = %+v, want MinSlack -1, Behind 1, Live 1", snap)
	}
	if got := h.series.FellBehind.Value(); got != 1 {
		t.Fatalf("fell-behind counter = %d, want 1", got)
	}

	// Still behind at t=160s (ttd=40s → requirement 5, 3 completed): the
	// latch must not re-fire.
	h.taskCompleted(0)
	h.taskCompleted(0)
	snap = h.SnapshotAt(sec(160))
	if got := snap.Workflows[0].Slack; got != -2 {
		t.Fatalf("t=160s slack = %d, want -2", got)
	}
	if got := h.series.FellBehind.Value(); got != 1 {
		t.Fatalf("fell-behind counter re-fired: %d", got)
	}

	// Catch up fully: slack goes non-negative, recovered fires once.
	for i := 0; i < 7; i++ {
		h.taskCompleted(0)
	}
	snap = h.SnapshotAt(sec(170))
	if got := snap.Workflows[0].Slack; got != 5 {
		t.Fatalf("t=170s slack = %d, want 5 (10 done, 5 required)", got)
	}
	if got := h.series.Recovered.Value(); got != 1 {
		t.Fatalf("recovered counter = %d, want 1", got)
	}

	// Completion removes the workflow from the live set.
	h.workflowDone(0, sec(180))
	snap = h.SnapshotAt(sec(190))
	if snap.Live != 0 || snap.Behind != 0 {
		t.Fatalf("after done: snapshot = %+v, want Live 0", snap)
	}
	if row := snap.Workflows[0]; !row.Done || row.TardinessUS != 0 {
		t.Fatalf("after done: row = %+v, want done, no tardiness", row)
	}

	// The event stream carries the typed crossings and per-snapshot slack.
	var kinds []Kind
	for _, e := range ring.Events() {
		kinds = append(kinds, e.Kind)
	}
	wantSome := map[Kind]bool{KindHealthSlack: false, KindHealthFellBehind: false, KindHealthRecovered: false}
	for _, k := range kinds {
		if _, ok := wantSome[k]; ok {
			wantSome[k] = true
		}
	}
	for k, seen := range wantSome {
		if !seen {
			t.Errorf("event stream missing %v", k)
		}
	}
}

func TestHealthPredictedMiss(t *testing.T) {
	o := New(NewRegistry(), nil)
	h := o.EnableHealth(HealthConfig{Interval: time.Second})
	// 10 tasks at a best-case rate of 10/120s; with 30s to the deadline and
	// nothing completed even the standalone rate cannot place 10 tasks.
	h.Register(0, "w0", 0, sec(200), 10, healthPlan())
	h.workflowReleased(0)
	snap := h.SnapshotAt(sec(170))
	if !snap.Workflows[0].PredictedMiss {
		t.Fatalf("t=170s (ttd=30s) row = %+v, want predicted miss", snap.Workflows[0])
	}
	if got := h.series.Predicted.Value(); got != 1 {
		t.Fatalf("predicted counter = %d, want 1", got)
	}
	// Latched: a second snapshot in the same state does not re-count.
	h.SnapshotAt(sec(171))
	if got := h.series.Predicted.Value(); got != 1 {
		t.Fatalf("predicted counter re-fired: %d", got)
	}
	// Past the deadline with work remaining the miss is certain.
	if !predictMiss(healthPlan(), 10, 9, -time.Second) {
		t.Error("predictMiss false with deadline past and tasks remaining")
	}
	if predictMiss(healthPlan(), 10, 10, -time.Second) {
		t.Error("predictMiss true with no tasks remaining")
	}
}

func TestHealthTickIntervalGating(t *testing.T) {
	o := New(nil, nil)
	h := o.EnableHealth(HealthConfig{Interval: 10 * time.Second})
	h.Register(0, "w0", 0, sec(200), 10, healthPlan())
	h.workflowReleased(0)
	h.tick(sec(5))
	if h.Last() != nil {
		t.Fatal("tick inside the first interval produced a snapshot")
	}
	h.tick(sec(10))
	first := h.Last()
	if first == nil {
		t.Fatal("tick at the interval boundary produced no snapshot")
	}
	h.tick(sec(15))
	if h.Last() != first {
		t.Fatal("tick inside the interval replaced the snapshot")
	}
	h.tick(sec(25))
	if h.Last() == first {
		t.Fatal("tick a full interval later did not snapshot")
	}
	if h.Interval() != 10*time.Second {
		t.Fatalf("Interval() = %v", h.Interval())
	}
}

func TestHealthDefaultInterval(t *testing.T) {
	o := New(nil, nil)
	if got := o.EnableHealth(HealthConfig{}).Interval(); got != DefaultHealthInterval {
		t.Fatalf("zero-config interval = %v, want %v", got, DefaultHealthInterval)
	}
	// EnableHealth is idempotent: a second call returns the same tracker.
	h := o.Health()
	if o.EnableHealth(HealthConfig{Interval: time.Second}) != h {
		t.Fatal("second EnableHealth replaced the tracker")
	}
}

func TestHealthUnplannedWorkflow(t *testing.T) {
	o := New(nil, nil)
	h := o.EnableHealth(HealthConfig{Interval: time.Second})
	h.Register(0, "base", 0, sec(100), 4, nil)
	h.workflowReleased(0)
	h.taskScheduled(0)
	snap := h.SnapshotAt(sec(50))
	row := snap.Workflows[0]
	if row.HasPlan || row.Slack != 0 || row.Behind {
		t.Fatalf("unplanned row = %+v, want no plan and no slack", row)
	}
	if snap.Live != 1 || snap.Behind != 0 || snap.InFlight != 1 {
		t.Fatalf("snapshot = %+v, want live 1, in-flight 1, behind 0", snap)
	}
}

func TestHealthNilSafety(t *testing.T) {
	var h *HealthTracker
	h.Register(0, "w", 0, 0, 0, nil)
	h.SetSlots(1, 1)
	h.workflowReleased(0)
	h.taskScheduled(0)
	h.taskCompleted(0)
	h.workflowDone(0, 0)
	h.tick(sec(1))
	if h.SnapshotAt(sec(1)) != nil || h.Last() != nil || h.Interval() != 0 {
		t.Fatal("nil tracker returned non-zero values")
	}
	var o *Obs
	if o.EnableHealth(HealthConfig{}) != nil || o.Health() != nil {
		t.Fatal("nil Obs built a tracker")
	}
	// Feeds for unregistered indices are ignored.
	oo := New(nil, nil)
	hh := oo.EnableHealth(HealthConfig{Interval: time.Second})
	hh.taskCompleted(7)
	hh.workflowDone(-1, 0)
	if snap := hh.SnapshotAt(sec(2)); len(snap.Workflows) != 0 {
		t.Fatalf("unregistered feeds materialized rows: %+v", snap)
	}
}

func TestHealthMetricsExported(t *testing.T) {
	reg := NewRegistry()
	o := New(reg, nil)
	h := o.EnableHealth(HealthConfig{Interval: time.Second})
	h.Register(0, "w0", 0, sec(200), 10, healthPlan())
	h.workflowReleased(0)
	h.SnapshotAt(sec(120)) // 0 completed, 2 required → slack -2

	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	scrape := sb.String()
	for _, want := range []string{
		declared(t, "woha_health_min_slack_tasks") + " -2",
		declared(t, "woha_health_behind_workflows") + " 1",
		declared(t, "woha_health_live_workflows") + " 1",
		declared(t, "woha_health_snapshots_total") + " 1",
		declared(t, "woha_health_fell_behind_total") + " 1",
		"# TYPE " + declared(t, "woha_health_slack_tasks") + " histogram",
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

func TestBuildInfoMetric(t *testing.T) {
	reg := NewRegistry()
	New(reg, nil)
	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	scrape := sb.String()
	name := declared(t, "woha_build_info")
	if !strings.Contains(scrape, name) || !strings.Contains(scrape, `go_version="go`) {
		t.Fatalf("scrape missing %s with go_version label:\n%s", name, scrape)
	}
}
