package woha_test

import (
	"strings"
	"testing"
	"time"

	woha "repro"
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
