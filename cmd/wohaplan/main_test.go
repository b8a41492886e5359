package main

import (
	"os"
	"path/filepath"
	"testing"
)

const planXML = `<workflow name="w" deadline="30m">
  <job name="a" maps="8" reduces="2" map-time="20s" reduce-time="1m"><output>/s</output></job>
  <job name="b" maps="4" reduces="1" map-time="20s" reduce-time="1m"><input>/s</input></job>
</workflow>`

func writeXML(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "w.xml")
	if err := os.WriteFile(path, []byte(planXML), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunPrintsPlan(t *testing.T) {
	if err := run([]string{writeXML(t)}, "LPF", 20, 10, 0.85, 1, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunBatchParallelCached(t *testing.T) {
	// A batch of identical files planned four at once through the cache:
	// the second and third files share the first's plan.
	path := writeXML(t)
	if err := run([]string{path, path, path}, "LPF", 20, 10, 0.85, 4, 16); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"/nonexistent.xml"}, "LPF", 20, 10, 0.85, 1, 0); err == nil {
		t.Error("missing file accepted")
	}
	if err := run([]string{writeXML(t)}, "ZZZ", 20, 10, 0.85, 1, 0); err == nil {
		t.Error("unknown policy accepted")
	}
	if err := run([]string{writeXML(t)}, "LPF", 20, 10, 2.0, 1, 0); err == nil {
		t.Error("bad margin accepted")
	}
}
