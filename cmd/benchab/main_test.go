package main

import (
	"context"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 8.5},
		{[]float64{2, 4}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestSummarizeBounds checks the verdicts against a metric's bound in both
// directions of "better", the win count, and the gain rule: nine pairs in ten
// and a median difference past the parent's quartile distance.
func TestSummarizeBounds(t *testing.T) {
	parent := []float64{100, 100, 100, 100}
	for _, c := range []struct {
		m           metric
		parent      []float64
		change      []float64
		wins        int
		worse, gain bool
	}{
		{metric{"workflows_per_s", "higher", 0.2}, parent, []float64{130, 120, 125, 90}, 3, false, false},
		{metric{"workflows_per_s", "higher", 0.2}, parent, []float64{130, 120, 125, 110}, 4, false, true},
		{metric{"workflows_per_s", "higher", 0.2}, []float64{80, 90, 110, 120}, []float64{105, 110, 115, 125}, 4, false, false},
		{metric{"workflows_per_s", "higher", 0.2}, parent, []float64{70, 72, 78, 110}, 1, true, false},
		{metric{"setup_s", "lower", 0.25}, parent, []float64{90, 95, 130, 80}, 3, false, false},
		{metric{"setup_s", "lower", 0.25}, parent, []float64{90, 95, 99, 80}, 4, false, true},
		{metric{"setup_s", "lower", 0.25}, parent, []float64{130, 140, 135, 90}, 1, true, false},
	} {
		s := summarize(c.m, c.parent, c.change)
		if s.wins != c.wins || s.worse != c.worse || s.gain != c.gain {
			t.Errorf("%s %v → %v: wins %d worse %v gain %v, want %d %v %v (median ratio %.3f)",
				c.m.Better, c.parent, c.change, s.wins, s.worse, s.gain, c.wins, c.worse, c.gain, s.ratio.median)
		}
	}
}

// TestExtract checks that a commit extracted by git archive is the commit's
// tree: a throwaway repository with a file, a subdirectory and a symlink.
func TestExtract(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("no git")
	}
	ctx := context.Background()
	repo := t.TempDir()
	mustGit := func(args ...string) string {
		t.Helper()
		out, err := git(ctx, repo, args...)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	mustGit("init", "-q")
	if err := os.MkdirAll(filepath.Join(repo, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(repo, "sub", "a.txt"), []byte("hello\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("sub/a.txt", filepath.Join(repo, "link")); err != nil {
		t.Fatal(err)
	}
	mustGit("add", "-A")
	mustGit("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "x")
	sha := mustGit("rev-parse", "HEAD")

	dir := filepath.Join(t.TempDir(), "tree")
	if err := extract(ctx, repo, sha, dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sub/a.txt", "link"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || string(data) != "hello\n" {
			t.Errorf("%s: %q, %v; want the committed content", name, data, err)
		}
	}
}
