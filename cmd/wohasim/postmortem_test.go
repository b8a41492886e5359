package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	woha "repro"
)

// TestPostmortemSmoke forces a deterministic deadline miss and asserts the
// attribution pipeline end to end: two identical workflows, each feasible
// standalone on a 1-map-slot cluster, compete for the same slot, so at least
// one must fall behind its plan and miss. The resulting report must be
// schema-valid JSON naming the missed workflow, its first unmet progress
// requirement F_i, and the critical-path stage.
func TestPostmortemSmoke(t *testing.T) {
	const tightXML = `<workflow name="tight" deadline="400s">
  <job name="crunch" maps="5" reduces="1" map-time="60s" reduce-time="30s"><output>/x</output></job>
</workflow>`
	dir := t.TempDir()
	xmlPath := filepath.Join(dir, "tight.xml")
	if err := os.WriteFile(xmlPath, []byte(tightXML), 0o644); err != nil {
		t.Fatal(err)
	}
	parse := func() *woha.Workflow {
		f, err := os.Open(xmlPath)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		w, err := woha.ParseWorkflowXML(f)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	flows := []*woha.Workflow{parse(), parse()}

	ring := woha.NewEventRing(1 << 20)
	ins := woha.NewInstrumentation(nil, ring)
	ins.EnableHealth(woha.HealthConfig{})
	pl := planOpts{workers: 1, cache: 16}.shared(ins)
	pm := &postmortemCapture{path: filepath.Join(dir, "postmortem.json"), ring: ring}
	cfg := woha.ClusterConfig{Nodes: 1, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1, Seed: 1}
	b, err := prepare(flows, "WOHA-LPF", cfg, ins, pl, pm, admissionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := woha.NewSession(cfg, woha.SchedulerWOHALPF,
		woha.WithSeed(cfg.Seed), woha.WithInstrumentation(ins), woha.WithPlanner(pl))
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range b.flows {
		if err := sess.SubmitWithPlan(w, b.plans[i]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadlineMisses() == 0 {
		t.Fatal("contended scenario did not force a deadline miss")
	}

	var out strings.Builder
	if err := pm.write(&out); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(pm.path)
	if err != nil {
		t.Fatal(err)
	}
	var rep woha.PostmortemReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Schema != "woha-postmortem/v1" {
		t.Fatalf("schema = %q", rep.Schema)
	}
	if rep.Workflows != 2 || len(rep.Missed) == 0 {
		t.Fatalf("report = %d workflows, %d missed; want 2 workflows and a non-empty miss list", rep.Workflows, len(rep.Missed))
	}
	for _, m := range rep.Missed {
		if m.Name != "tight" {
			t.Errorf("miss names workflow %q, want \"tight\"", m.Name)
		}
		if m.TardinessUS <= 0 {
			t.Errorf("wf %d tardiness = %d, want > 0", m.Workflow, m.TardinessUS)
		}
		if len(m.CriticalPath) == 0 {
			t.Fatalf("wf %d has no critical path", m.Workflow)
		}
		if st := m.CriticalPath[len(m.CriticalPath)-1].Stage; st != "map" && st != "reduce" {
			t.Errorf("critical-path stage = %q", st)
		}
		if m.Blame == nil || m.Blame.Reason == "" {
			t.Errorf("wf %d has no blame verdict", m.Workflow)
		}
	}
	// At least one loser violated a plan requirement on the way down.
	sawUnmet := false
	for _, m := range rep.Missed {
		if m.FirstUnmetReq != nil {
			sawUnmet = true
			if m.FirstUnmetReq.Deficit <= 0 {
				t.Errorf("unmet req has non-positive deficit: %+v", m.FirstUnmetReq)
			}
		}
	}
	if !sawUnmet {
		t.Error("no missed workflow reports a first unmet F_i")
	}
	// The text summary names the same attribution.
	for _, want := range []string{`"tight"`, "first unmet requirement", "critical path", "blame"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("text summary missing %q:\n%s", want, out.String())
		}
	}
}
