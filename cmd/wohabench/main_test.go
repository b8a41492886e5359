package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestRunRejectsUnknownFigure(t *testing.T) {
	var sb strings.Builder
	err := run("bogus", "", &sb, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown figure") {
		t.Fatalf("err = %v", err)
	}
	// The error lists every accepted name, from the same list run() checks.
	for _, name := range figNames {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error does not list %q: %v", name, err)
		}
	}
}

func TestRunFig2(t *testing.T) {
	var sb strings.Builder
	if err := run("2", "", &sb, nil); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Fig 2", "uncapped finish", "capped finish"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var sb strings.Builder
	if err := writeTrace(path, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "events written") {
		t.Errorf("missing confirmation line:\n%s", sb.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The file must be the Chrome trace-event JSON object format with both
	// track groups named via metadata events.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	var trackers, workflows bool
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "M" && ev["name"] == "process_name" {
			if args, ok := ev["args"].(map[string]any); ok {
				switch args["name"] {
				case "trackers":
					trackers = true
				case "workflows":
					workflows = true
				}
			}
		}
	}
	if !trackers || !workflows {
		t.Errorf("trace missing track metadata: trackers=%v workflows=%v", trackers, workflows)
	}
}

// TestRunModelSweeps renders the two model sweeps that have no paper figure
// number: each prints its own table and nothing else.
func TestRunModelSweeps(t *testing.T) {
	for fig, want := range map[string][]string{
		"admission":  {"Admission sweep", "always-miss", "counter-offers", "80m-80r"},
		"federation": {"Federation sweep", "staleness", "30m0s"},
	} {
		var sb strings.Builder
		if err := run(fig, "", &sb, nil); err != nil {
			t.Fatalf("-fig %s: %v", fig, err)
		}
		out := sb.String()
		for _, w := range want {
			if !strings.Contains(out, w) {
				t.Errorf("-fig %s output missing %q:\n%s", fig, w, out)
			}
		}
		if !strings.HasPrefix(out, want[0]) || strings.Contains(out, "\nFig ") {
			t.Errorf("-fig %s rendered more than its own table:\n%s", fig, out)
		}
	}
}

// TestRunFig8Streams pins the streamed Fig 8 rendering: the row-by-row
// TableWriter output of run("8") must be byte-identical to the batch
// MissTable render of the same sweep.
func TestRunFig8Streams(t *testing.T) {
	var sb strings.Builder
	if err := run("8", "", &sb, nil); err != nil {
		t.Fatal(err)
	}
	res, err := experiments.Fig8(experiments.DefaultFig8Config())
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := res.MissTable().Render(&want); err != nil {
		t.Fatal(err)
	}
	if sb.String() != want.String() {
		t.Errorf("streamed Fig 8 differs from batch render:\nstreamed:\n%s\nbatch:\n%s", sb.String(), want.String())
	}
}

func TestRunFig13bAndTimelines(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	if err := run("13b", dir, &sb, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Fig 13(b)") {
		t.Errorf("missing Fig 13(b) table:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "timelines written") {
		t.Errorf("missing timeline confirmation:\n%s", sb.String())
	}
}
