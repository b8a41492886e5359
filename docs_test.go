package woha_test

import (
	"io/fs"
	"os"
	"path/filepath"
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
	// A test function a document names: an identifier in a code span, where
	// a trailing * or … stands for any suffix.
	codeSpan     = regexp.MustCompile("`[^`]+`")
	testFuncRef  = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*[*…]?`)
	testFuncDecl = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)\w*)\(`)
	makeRunFlag  = regexp.MustCompile(`-(?:run|fuzz) '([^']*)'`)
)

// testFuncs returns the name of every test, benchmark, fuzz target and
// example declared in a _test.go file of the module.
func testFuncs(t *testing.T) map[string]bool {
	t.Helper()
	funcs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFuncDecl.FindAllStringSubmatch(string(src), -1) {
			funcs[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

// namesTestFunc reports whether ref, a name as a document writes it, names a
// function in funcs.
func namesTestFunc(ref string, funcs map[string]bool) bool {
	prefix := strings.TrimRight(ref, "*…")
	if prefix == ref {
		return funcs[ref]
	}
	for f := range funcs {
		if strings.HasPrefix(f, prefix) {
			return true
		}
	}
	return false
}

// TestDocsNameOnlyWhatExists keeps the documents and the tree from drifting
// apart: every make target a document names is in the Makefile, every test
// function a document or a Makefile -run/-fuzz pattern names exists, and no
// document names a BENCH_*.json report (measurements come from
// `go run ./benchmark` and its benchmark/BASELINE.json).
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
	funcs := testFuncs(t)
	if !funcs["TestDocsNameOnlyWhatExists"] {
		t.Fatal("test functions not parsed")
	}

	// A stale -run or -fuzz pattern selects nothing and passes silently. An
	// alternative matching the empty string, such as ^$, selects no test on
	// purpose.
	for _, m := range makeRunFlag.FindAllStringSubmatch(string(mk), -1) {
		for _, alt := range strings.Split(strings.ReplaceAll(m[1], "$$", "$"), "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("Makefile pattern %q: %v", m[1], err)
				continue
			}
			if re.MatchString("") {
				continue
			}
			matched := false
			for f := range funcs {
				if re.MatchString(f) {
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("Makefile pattern %q: %q matches no test function", m[1], alt)
			}
		}
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
			for _, span := range codeSpan.FindAllString(line, -1) {
				for _, ref := range testFuncRef.FindAllString(span, -1) {
					if !namesTestFunc(ref, funcs) {
						t.Errorf("%s:%d names %s, which no _test.go declares", doc, i+1, ref)
					}
				}
			}
			if ref := benchJSONRef.FindString(line); ref != "" {
				t.Errorf("%s:%d names %s; quote a metric of `go run ./benchmark` instead", doc, i+1, ref)
			}
		}
	}
}
