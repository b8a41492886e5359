// Command benchab is an A/B run of the repository's benchmark: the benchmark
// as it stands in the working tree (the change) against the benchmark of an
// earlier commit (the parent), in alternating pairs on fresh seeds, so a
// speed claim is a ratio taken in one session on one host rather than a
// comparison with numbers stored from another day.
//
//	go run ./cmd/benchab -rev HEAD~1 -workload plan_mix -pairs 10
//	make bench-ab REV=HEAD~1 WORKLOAD=plan_mix PAIRS=10
//
// It extracts the parent commit with git archive into a temporary directory
// (offline, nothing registered in .git, removed on exit), builds ./benchmark
// there and in the working tree, and runs each binary from its own tree for
// the run length BENCHMARK.json declares. Pair i runs both on seed i, parent
// first in odd pairs and change first in even ones. For each end-to-end
// metric declared there it prints each side's median and quartiles (as
// Python's statistics.quantiles computes them), the median change/parent
// ratio and how many pairs the change won, and whether that is a gain: the
// change won at least nine pairs in ten and the medians differ by more than
// the distance between the parent's quartiles. It exits 1 when a median
// ratio is worse than the metric's bound in BENCHMARK.json, or when a run
// reports failed operations; it never writes BENCHMARK.json.
package main

import (
	"archive/tar"
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
)

// declaration is the part of BENCHMARK.json this command reads.
type declaration struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
}

// metric is one declared end-to-end metric and its regression bound.
type metric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// result is the JSON object the benchmark prints last.
type result struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	rev := flag.String("rev", "HEAD", "the parent commit: any revision git rev-parse accepts")
	workload := flag.String("workload", "plan_mix", "the benchmark workload to compare on")
	pairs := flag.Int("pairs", 10, "number of alternating parent/change pairs")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ok, err := run(ctx, os.Stdout, *rev, *workload, *pairs)
	if err != nil {
		fatal(err)
	}
	if !ok {
		stop()
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchab:", err)
	os.Exit(2)
}

// run builds both sides, runs the pairs and prints the comparison. ok is
// false when a bound is broken or a run failed operations.
func run(ctx context.Context, out io.Writer, rev, workload string, pairs int) (ok bool, err error) {
	if pairs < 1 {
		return false, fmt.Errorf("-pairs %d, want at least 1", pairs)
	}
	root, err := git(ctx, "", "rev-parse", "--show-toplevel")
	if err != nil {
		return false, err
	}
	decl, err := loadDeclaration(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return false, err
	}
	if !decl.hasWorkload(workload) {
		return false, fmt.Errorf("unknown workload %q", workload)
	}
	seconds := decl.RunSeconds
	if seconds <= 0 {
		return false, fmt.Errorf("BENCHMARK.json declares run_seconds %v, want > 0", seconds)
	}
	sha, err := git(ctx, root, "rev-parse", "--verify", rev+"^{commit}")
	if err != nil {
		return false, err
	}

	tmp, err := os.MkdirTemp("", "benchab-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(tmp)
	parentTree := filepath.Join(tmp, "parent")
	if err := extract(ctx, root, sha, parentTree); err != nil {
		return false, fmt.Errorf("extracting %s: %w", rev, err)
	}
	bins := map[string]string{"parent": filepath.Join(tmp, "bench-parent"), "change": filepath.Join(tmp, "bench-change")}
	trees := map[string]string{"parent": parentTree, "change": root}
	for _, side := range []string{"parent", "change"} {
		cmd := exec.CommandContext(ctx, "go", "build", "-o", bins[side], "./benchmark")
		cmd.Dir, cmd.Stderr = trees[side], os.Stderr
		if err := cmd.Run(); err != nil {
			return false, fmt.Errorf("building the %s's benchmark: %w", side, err)
		}
	}

	fmt.Fprintf(out, "benchab: parent %.12s (%s), change = working tree; workload %s, %d pairs of %gs, seeds 1..%d\n",
		sha, rev, workload, pairs, seconds, pairs)
	vals := map[string]map[string][]float64{"parent": {}, "change": {}}
	ok = true
	for i := 1; i <= pairs; i++ {
		order := []string{"parent", "change"}
		if i%2 == 0 {
			order[0], order[1] = order[1], order[0]
		}
		line := fmt.Sprintf("pair %2d seed %2d:", i, i)
		got := map[string]*result{}
		for _, side := range order {
			res, err := bench(ctx, bins[side], trees[side], workload, int64(i), seconds)
			if err != nil {
				return false, fmt.Errorf("pair %d, %s: %w", i, side, err)
			}
			if !res.Correct || res.Failed > 0 {
				fmt.Fprintf(out, "pair %d: the %s's run failed %d operations (correct=%v)\n", i, side, res.Failed, res.Correct)
				ok = false
			}
			got[side] = res
		}
		for _, m := range decl.EndToEnd {
			p, c := got["parent"].Metrics[m.Name].Value, got["change"].Metrics[m.Name].Value
			vals["parent"][m.Name] = append(vals["parent"][m.Name], p)
			vals["change"][m.Name] = append(vals["change"][m.Name], c)
			line += fmt.Sprintf("  %s %.4g→%.4g", m.Name, p, c)
		}
		fmt.Fprintln(out, line)
	}

	for _, m := range decl.EndToEnd {
		s := summarize(m, vals["parent"][m.Name], vals["change"][m.Name])
		fmt.Fprintf(out, "\n%s (%s is better, bound %.2f)\n", m.Name, m.Better, m.Bound)
		fmt.Fprintf(out, "  parent          median %.4g  q1 %.4g  q3 %.4g\n", s.parent.median, s.parent.q1, s.parent.q3)
		fmt.Fprintf(out, "  change          median %.4g  q1 %.4g  q3 %.4g\n", s.change.median, s.change.q1, s.change.q3)
		fmt.Fprintf(out, "  change/parent   median ×%.3f  q1 ×%.3f  q3 ×%.3f  wins %d/%d\n",
			s.ratio.median, s.ratio.q1, s.ratio.q3, s.wins, pairs)
		verdict := "within bound"
		if s.worse {
			verdict, ok = "WORSE than the bound", false
		}
		if s.gain {
			verdict += "; a gain"
		}
		fmt.Fprintf(out, "  %s\n", verdict)
	}
	return ok, nil
}

// summary is one metric's comparison over the pairs.
type summary struct {
	parent, change, ratio stats // ratio is change/parent, pair by pair
	wins                  int   // pairs in which the change was better
	// worse: the median ratio is past the bound. gain: the change won at
	// least nine pairs in ten and the medians differ, in its favour, by more
	// than the parent's quartile distance.
	worse, gain bool
}

// stats is a sample's median and quartiles.
type stats struct{ median, q1, q3 float64 }

func statsOf(xs []float64) stats {
	q1, q3 := quartiles(xs)
	return stats{median(xs), q1, q3}
}

func summarize(m metric, parent, change []float64) summary {
	var s summary
	ratios := make([]float64, len(parent))
	for i := range parent {
		ratios[i] = change[i] / parent[i]
		if (m.Better == "higher" && ratios[i] > 1) || (m.Better == "lower" && ratios[i] < 1) {
			s.wins++
		}
	}
	s.parent, s.change, s.ratio = statsOf(parent), statsOf(change), statsOf(ratios)
	better := s.change.median - s.parent.median
	if m.Better == "higher" {
		s.worse = s.ratio.median < 1-m.Bound
	} else {
		s.worse = s.ratio.median > 1+m.Bound
		better = -better
	}
	s.gain = 10*s.wins >= 9*len(parent) && better > s.parent.q3-s.parent.q1
	return s
}

// bench runs one benchmark binary from its tree and returns the JSON object
// it prints last.
func bench(ctx context.Context, bin, dir, workload string, seed int64, seconds float64) (*result, error) {
	cmd := exec.CommandContext(ctx, bin, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	raw, err := cmd.Output()
	if err != nil && len(raw) == 0 {
		return nil, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if b := bytes.TrimSpace(sc.Bytes()); len(b) > 0 && b[0] == '{' {
			last = append(last[:0], b...)
		}
	}
	if last == nil {
		return nil, fmt.Errorf("no result line in the output (%v)", err)
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// extract writes commit sha's tree into dir: git archive, read here rather
// than through tar(1).
func extract(ctx context.Context, root, sha, dir string) error {
	cmd := exec.CommandContext(ctx, "git", "archive", "--format=tar", sha)
	cmd.Dir, cmd.Stderr = root, os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	tr := tar.NewReader(pipe)
	for {
		h, err := tr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			cmd.Wait()
			return err
		}
		name := filepath.Join(dir, filepath.FromSlash(h.Name))
		if !strings.HasPrefix(name, dir+string(filepath.Separator)) {
			continue // pax headers and anything outside the tree
		}
		switch h.Typeflag {
		case tar.TypeDir:
			err = os.MkdirAll(name, 0o755)
		case tar.TypeReg:
			err = writeFile(name, tr, os.FileMode(h.Mode)&0o777)
		case tar.TypeSymlink:
			if err = os.MkdirAll(filepath.Dir(name), 0o755); err == nil {
				err = os.Symlink(h.Linkname, name)
			}
		}
		if err != nil {
			cmd.Wait()
			return err
		}
	}
	return cmd.Wait()
}

func writeFile(name string, r io.Reader, mode os.FileMode) error {
	if err := os.MkdirAll(filepath.Dir(name), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, mode)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// git runs git in dir and returns its trimmed standard output.
func git(ctx context.Context, dir string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, "git", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(string(out)), nil
}

func loadDeclaration(path string) (*declaration, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

func (d *declaration) hasWorkload(name string) bool {
	for _, w := range d.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	n := len(s)
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method). Fewer than
// two values have no spread: both quartiles are the single value.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		return median(xs), median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	const n = 4
	ld, m := len(s), len(s)+1
	cut := func(i int) float64 {
		j := min(max(i*m/n, 1), ld-1)
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(3)
}
