package woha_test

import (
	"strings"
	"testing"
	"time"

	woha "repro"
	"repro/internal/experiments"
	"repro/internal/plan"
	"repro/internal/priority"
)

func parseSC(t *testing.T, doc string) *woha.SchedulerConfig {
	t.Helper()
	sc, err := woha.ParseSchedulerConfig(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("ParseSchedulerConfig: %v", err)
	}
	return sc
}

func TestParseSchedulerConfig(t *testing.T) {
	sc := parseSC(t, `
<workflow-scheduler>
  <scheduler>WOHA</scheduler>
  <plan-generator>HLF</plan-generator>
  <queue>BST</queue>
  <plan-margin>0.9</plan-margin>
</workflow-scheduler>`)
	if sc.Scheduler != "WOHA" || sc.PlanGenerator != "HLF" || sc.Queue != "BST" || sc.PlanMargin != 0.9 {
		t.Errorf("parsed %+v", sc)
	}
}

func TestParseSchedulerConfigDefaults(t *testing.T) {
	sc := parseSC(t, `<workflow-scheduler><scheduler>WOHA</scheduler></workflow-scheduler>`)
	if sc.PlanMargin != 0.85 {
		t.Errorf("default margin = %v, want 0.85", sc.PlanMargin)
	}
}

func TestParseSchedulerConfigErrors(t *testing.T) {
	bad := []string{
		`not xml`,
		`<workflow-scheduler/>`,
		`<workflow-scheduler><scheduler>Mystery</scheduler></workflow-scheduler>`,
		`<workflow-scheduler><scheduler>WOHA</scheduler><plan-generator>EDF</plan-generator></workflow-scheduler>`,
		`<workflow-scheduler><scheduler>WOHA</scheduler><plan-margin>1.5</plan-margin></workflow-scheduler>`,
	}
	for i, doc := range bad {
		if _, err := woha.ParseSchedulerConfig(strings.NewReader(doc)); err == nil {
			t.Errorf("config %d accepted: %s", i, doc)
		}
	}
}

func TestSessionFromConfigRunsWOHA(t *testing.T) {
	sc := parseSC(t, `
<workflow-scheduler>
  <scheduler>WOHA</scheduler>
  <plan-generator>LPF</plan-generator>
  <queue>BST</queue>
</workflow-scheduler>`)
	sess, err := woha.NewSessionFromConfig(woha.ClusterConfig{
		Nodes: 4, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1,
	}, sc, woha.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(etl(t, "w", time.Hour)); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "WOHA-LPF" {
		t.Errorf("Policy = %q, want WOHA-LPF", res.Policy)
	}
	if !res.Workflows[0].Met {
		t.Error("missed a generous deadline")
	}
}

// planCapture records the plan each workflow runs under, read off its first
// started task.
type planCapture map[string]*woha.Plan

func (c planCapture) TaskStarted(_ woha.Time, wf *woha.WorkflowState, _ woha.JobID, _ woha.SlotType, _ time.Duration) {
	if _, ok := c[wf.Spec.Name]; !ok {
		c[wf.Spec.Name] = wf.Plan
	}
}

func (planCapture) TaskFinished(woha.Time, *woha.WorkflowState, woha.JobID, woha.SlotType) {}

// TestSessionFromConfigPlansAtItsMargin: the config's <plan-margin> reaches
// the plans. A session built from a document with margin 0.9 runs each
// workflow under the plan plan.GenerateCappedTyped builds at 0.9, byte for
// byte, and the workflow is one whose 0.85 plan differs, so the margin is
// what the comparison sees. A WithPlanner planner must target that margin.
func TestSessionFromConfigPlansAtItsMargin(t *testing.T) {
	sc := parseSC(t, `
<workflow-scheduler>
  <scheduler>WOHA</scheduler>
  <plan-generator>HLF</plan-generator>
  <plan-margin>0.9</plan-margin>
</workflow-scheduler>`)
	cfg := woha.ClusterConfig{Nodes: 4, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1}
	caps := plan.Caps{Maps: cfg.MapSlots(), Reduces: cfg.ReduceSlots()}
	w := etl(t, "w", 20*time.Minute)
	want, err := plan.GenerateCappedTyped(w, caps, priority.HLF{}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	dflt, err := plan.GenerateCappedTyped(w, caps, priority.HLF{}, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	if string(dflt.Encode()) == string(want.Encode()) {
		t.Fatal("the workflow plans alike at 0.85 and 0.9; pick one the margin changes")
	}

	got := planCapture{}
	sess, err := woha.NewSessionFromConfig(cfg, sc, woha.WithObserver(got))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(w); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	if got["w"] == nil || string(got["w"].Encode()) != string(want.Encode()) {
		t.Errorf("session ran plan %+v, want the margin-0.9 plan %+v", got["w"], want)
	}

	if _, err := woha.NewSessionFromConfig(cfg, sc, woha.WithPlanner(woha.NewPlanner(woha.PlannerConfig{Margin: 0.9}))); err != nil {
		t.Errorf("planner at the config's margin refused: %v", err)
	}
	_, err = woha.NewSessionFromConfig(cfg, sc, woha.WithPlanner(woha.NewPlanner(woha.PlannerConfig{})))
	if err == nil || !strings.Contains(err.Error(), "plan-margin") {
		t.Errorf("planner at 0.85 under plan-margin 0.9: err = %v, want the margin mismatch refused", err)
	}
}

func TestSessionFromConfigRunsBaseline(t *testing.T) {
	sc := parseSC(t, `<workflow-scheduler><scheduler>EDF</scheduler></workflow-scheduler>`)
	sess, err := woha.NewSessionFromConfig(woha.ClusterConfig{
		Nodes: 4, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1,
	}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(etl(t, "w", time.Hour)); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "EDF" {
		t.Errorf("Policy = %q, want EDF", res.Policy)
	}
}

// TestSessionFromConfigBadQueue rejects names that are not one of the three
// Fig 13(a) backends ("Det", which older configs may still name, among them),
// and the error lists the names that are.
func TestSessionFromConfigBadQueue(t *testing.T) {
	for _, name := range []string{"Btree", "Det"} {
		sc := &woha.SchedulerConfig{Scheduler: "WOHA", PlanGenerator: "LPF", Queue: name, PlanMargin: 0.85}
		_, err := woha.NewSessionFromConfig(woha.ClusterConfig{
			Nodes: 1, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1,
		}, sc)
		if err == nil || !strings.Contains(err.Error(), "want DSL, BST, or Naive") {
			t.Errorf("queue %q: err = %v, want an unknown-backend error listing DSL, BST, Naive", name, err)
		}
	}
}

// TestEverySchedulerResolvesThroughTheTable pins the one scheduler table:
// every built-in scheduler name and every valid workflow-scheduler.xml
// (each baseline; WOHA under each plan generator and queue backend, named or
// defaulted) runs the policy experiments.SchedulerByName returns, WOHA on the
// configured queue backend, as the session's Result.Policy and its
// woha_queue_* series show.
func TestEverySchedulerResolvesThroughTheTable(t *testing.T) {
	cfg := woha.ClusterConfig{Nodes: 4, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1}
	type entry struct {
		label string
		spec  string // the table entry the scheduler must resolve to
		queue string // the WOHA queue backend; "" for a baseline
		open  func(ins *woha.Instrumentation) (*woha.Session, error)
	}
	var cases []entry
	for _, sched := range woha.Schedulers() {
		e := entry{label: string(sched), spec: string(sched), open: func(ins *woha.Instrumentation) (*woha.Session, error) {
			return woha.NewSession(cfg, sched, woha.WithInstrumentation(ins))
		}}
		if strings.HasPrefix(e.spec, "WOHA-") {
			e.queue = "DSL"
		}
		cases = append(cases, e)
	}
	for _, sc := range []woha.SchedulerConfig{{Scheduler: "FIFO"}, {Scheduler: "Fair"}, {Scheduler: "EDF"}} {
		cases = append(cases, entry{label: "config " + sc.Scheduler, spec: sc.Scheduler, open: func(ins *woha.Instrumentation) (*woha.Session, error) {
			return woha.NewSessionFromConfig(cfg, &sc, woha.WithInstrumentation(ins))
		}})
	}
	for _, gen := range []string{"", "HLF", "LPF", "MPF"} {
		for _, queue := range []string{"", "DSL", "BST", "Naive"} {
			sc := woha.SchedulerConfig{Scheduler: "WOHA", PlanGenerator: gen, Queue: queue, PlanMargin: 0.85}
			e := entry{label: "config WOHA/" + gen + "/" + queue, spec: "WOHA-" + gen, queue: queue,
				open: func(ins *woha.Instrumentation) (*woha.Session, error) {
					return woha.NewSessionFromConfig(cfg, &sc, woha.WithInstrumentation(ins))
				}}
			if gen == "" {
				e.spec = "WOHA-LPF"
			}
			if queue == "" {
				e.queue = "DSL"
			}
			cases = append(cases, e)
		}
	}

	for _, c := range cases {
		spec, err := experiments.SchedulerByName(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		reg := woha.NewMetrics()
		sess, err := c.open(woha.NewInstrumentation(reg, nil))
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		if err := sess.Submit(etl(t, "w", 2*time.Hour)); err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		res, err := sess.Run()
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		if res.Policy != spec.Name {
			t.Errorf("%s: Result.Policy = %q, want the table's %q", c.label, res.Policy, spec.Name)
		}
		var buf strings.Builder
		if _, err := reg.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		for _, q := range []string{"DSL", "BST", "Naive"} {
			n := scrapeValue(buf.String(), `woha_queue_inserts_total{queue="`+q+`"}`)
			if want := q == c.queue; want != (n > 0) {
				t.Errorf("%s: woha_queue_inserts_total{queue=%q} = %d, want the %q backend only", c.label, q, n, c.queue)
			}
		}
	}
}
