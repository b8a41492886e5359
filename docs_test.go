package woha_test

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// driftDocs are the documents that tell a reader what to run. CHANGES.md and
// ROADMAP.md are history, and benchmark/ is owned by the benchmark.
var driftDocs = []string{
	"README.md", "DESIGN.md", "OBSERVABILITY.md", "EXPERIMENTS.md",
	".claude/skills/verify/SKILL.md",
}

var (
	makefileTarget = regexp.MustCompile(`(?m)^([A-Za-z0-9_-]+):`)
	// A make invocation is `make x` in a code span, or a fenced line that
	// starts with it; "make" in running prose is not one.
	makeInSpan   = regexp.MustCompile("`make ([A-Za-z0-9_-]+)")
	makeInFence  = regexp.MustCompile(`^\s*make ([A-Za-z0-9_-]+)`)
	benchJSONRef = regexp.MustCompile(`BENCH_\w*\.json`)
)

// TestDocsNameOnlyWhatExists keeps the documents and the tree from drifting
// apart: every make target a document names is in the Makefile, and none names
// a BENCH_*.json report (measurements come from `go run ./benchmark` and its
// benchmark/BASELINE.json).
func TestDocsNameOnlyWhatExists(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makefileTarget.FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}
	if !targets["ci"] || !targets["verify"] {
		t.Fatalf("Makefile targets not parsed: %v", targets)
	}

	for _, doc := range driftDocs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Error(err)
			continue
		}
		fenced := false
		for i, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			named := makeInSpan.FindAllStringSubmatch(line, -1)
			if fenced {
				named = append(named, makeInFence.FindAllStringSubmatch(line, -1)...)
			}
			for _, m := range named {
				if !targets[m[1]] {
					t.Errorf("%s:%d names `make %s`, which is not a Makefile target", doc, i+1, m[1])
				}
			}
			if ref := benchJSONRef.FindString(line); ref != "" {
				t.Errorf("%s:%d names %s; quote a metric of `go run ./benchmark` instead", doc, i+1, ref)
			}
		}
	}
}
