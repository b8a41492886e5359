package obs

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/simtime"
)

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "unknown" || k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(numKinds).String() != "unknown" {
		t.Error("out-of-range kind should stringify as unknown")
	}
}

func TestRingWrapsAndCounts(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Emit(Event{Kind: KindTaskAssigned, Workflow: i})
	}
	if r.Total() != 5 {
		t.Errorf("total = %d, want 5", r.Total())
	}
	got := r.Events()
	if len(got) != 3 {
		t.Fatalf("retained %d events, want 3", len(got))
	}
	// Oldest first: workflows 2, 3, 4 survive.
	for i, want := range []int{2, 3, 4} {
		if got[i].Workflow != want {
			t.Errorf("events[%d].Workflow = %d, want %d", i, got[i].Workflow, want)
		}
	}
	if r.CountKind(KindTaskAssigned) != 3 {
		t.Errorf("CountKind = %d, want 3", r.CountKind(KindTaskAssigned))
	}
	if r.CountKind(KindHeartbeatServed) != 0 {
		t.Error("CountKind for absent kind should be 0")
	}
}

func TestRingDefaultSize(t *testing.T) {
	r := NewRing(0)
	if cap(r.buf) != DefaultRingSize {
		t.Errorf("cap = %d, want %d", cap(r.buf), DefaultRingSize)
	}
}

// A nil *Ring is a valid no-op sink — including when boxed into the
// EventSink interface, where the emit path's nil check cannot see it
// (regression: wohasim -metrics-addr without -postmortem panicked here).
func TestRingNilReceiver(t *testing.T) {
	var r *Ring
	r.Emit(Event{Kind: KindWorkflowSubmitted})
	if r.Events() != nil || r.Total() != 0 || r.CountKind(KindWorkflowSubmitted) != 0 {
		t.Errorf("nil ring reported state: %v %d", r.Events(), r.Total())
	}
	o := New(NewRegistry(), r) // typed nil crosses the interface boundary
	o.WorkflowSubmitted(sec(0), 0, "w")
	o.HeartbeatServed(sec(1), 0, time.Microsecond, 1)
}

func TestEventJSONSchema(t *testing.T) {
	e := Event{
		Kind:     KindHeartbeatServed,
		Time:     simtime.Epoch.Add(1500 * time.Microsecond),
		Workflow: -1, Job: -1, Tracker: 3, Slot: -1,
		Dur: 250 * time.Microsecond,
		N:   2,
	}
	raw, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"t_us": 1500, "tracker": 3, "dur_us": 250, "n": 2, "workflow": -1}
	for k, v := range want {
		if got, ok := m[k].(float64); !ok || got != v {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
	if m["kind"] != "heartbeat_served" {
		t.Errorf("kind = %v, want heartbeat_served", m["kind"])
	}
	if _, present := m["name"]; present {
		t.Error("empty name should be omitted")
	}
}

func TestJSONLWritesOneObjectPerLine(t *testing.T) {
	var sb strings.Builder
	s := NewJSONL(&sb)
	s.Emit(Event{Kind: KindWorkflowSubmitted, Workflow: 0, Job: -1, Tracker: -1, Slot: -1, Name: "w0"})
	s.Emit(Event{Kind: KindWorkflowCompleted, Workflow: 0, Job: -1, Tracker: -1, Slot: -1, Name: "w0"})
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2", len(lines))
	}
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Errorf("line %q is not JSON: %v", line, err)
		}
	}
}

type failWriter struct{ err error }

func (f failWriter) Write([]byte) (int, error) { return 0, f.err }

func TestJSONLStickyError(t *testing.T) {
	wantErr := errors.New("disk full")
	s := NewJSONL(failWriter{err: wantErr})
	s.Emit(Event{Kind: KindQueueInsert})
	s.Emit(Event{Kind: KindQueueInsert})
	if err := s.Err(); !errors.Is(err, wantErr) {
		t.Errorf("Err = %v, want %v", err, wantErr)
	}
}

func TestTeeSkipsNilAndFansOut(t *testing.T) {
	a, b := NewRing(8), NewRing(8)
	tee := Tee(a, nil, b)
	tee.Emit(Event{Kind: KindQueueHeadHit})
	if a.Total() != 1 || b.Total() != 1 {
		t.Errorf("tee totals = %d, %d, want 1, 1", a.Total(), b.Total())
	}
}

func TestObsNilSafety(t *testing.T) {
	var o *Obs
	// Every recording method must no-op on the nil bundle.
	o.HeartbeatServed(simtime.Epoch, 0, time.Millisecond, 1)
	o.WorkflowSubmitted(simtime.Epoch, 0, "w")
	o.WorkflowCompleted(simtime.Epoch, 0, "w", time.Second)
	o.JobActivated(simtime.Epoch, 0, 0)
	o.TaskAssigned(simtime.Epoch, 0, 0, 0, 0, time.Second)
	o.PlanGenerated(simtime.Epoch, "w", 3)
	o.Emit(Event{})
	if o.Registry() != nil ||
		o.NewSimStats() != (SimStats{}) || o.NewQueueStats("x") != nil {
		t.Error("nil Obs handed out non-nil children")
	}
	var q *QueueStats
	q.OnInsert(simtime.Epoch, 1)
	q.OnDelete(simtime.Epoch, 1)
	q.OnHeadHit(simtime.Epoch, 1, 0)
	q.OnLagRecomputes(10)
}

func TestObsWiringEndToEnd(t *testing.T) {
	reg := NewRegistry()
	ring := NewRing(64)
	o := New(reg, ring)

	o.WorkflowSubmitted(simtime.Epoch, 0, "w0")
	o.TaskAssigned(simtime.Epoch.Add(time.Second), 0, 1, 0, 2, 30*time.Second)
	o.HeartbeatServed(simtime.Epoch.Add(time.Second), 2, 100*time.Microsecond, 1)
	o.WorkflowCompleted(simtime.Epoch.Add(time.Minute), 0, "w0", 5*time.Second)

	if o.TasksAssigned.Value() != 1 {
		t.Errorf("tasks assigned = %d, want 1", o.TasksAssigned.Value())
	}
	if o.DeadlinesMissed.Value() != 1 {
		t.Errorf("deadline misses = %d, want 1 (tardiness was positive)", o.DeadlinesMissed.Value())
	}
	if o.QueueWorkflows.Value() != 0 {
		t.Errorf("queue gauge = %d, want 0 after submit+complete", o.QueueWorkflows.Value())
	}
	if ring.CountKind(KindDeadlineMissed) != 1 {
		t.Error("missing deadline_missed event")
	}

	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// The acceptance contract: these three names appear in every exposition,
	// eagerly registered even before traffic.
	for _, name := range []string{
		"woha_heartbeat_duration_seconds", "woha_tasks_assigned_total", "woha_workflows_deadline_missed_total",
	} {
		name = declared(t, name)
		if !strings.Contains(out, name) {
			t.Errorf("exposition missing %s:\n%s", name, out)
		}
	}
}

func TestWorkflowCompletedOnTimeIsNoMiss(t *testing.T) {
	o := New(NewRegistry(), nil)
	o.WorkflowCompleted(simtime.Epoch, 0, "w", 0)
	if o.DeadlinesMissed.Value() != 0 {
		t.Error("zero tardiness counted as a miss")
	}
}
