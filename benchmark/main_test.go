package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"testing"
)

// TestDeclarationMatches pins BENCHMARK.json to what the program emits: the
// same workloads and the same metrics with the same unit and direction, in
// both directions, under names the contract accepts.
func TestDeclarationMatches(t *testing.T) {
	decl, err := loadDeclaration(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var declared, emitted []string
	for _, m := range decl.EndToEnd {
		declared = append(declared, "e2e "+m.Name+" "+m.Unit+" "+m.Better)
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range decl.PerLayer {
		declared = append(declared, "layer "+m.Name+" "+m.Unit+" "+m.Better)
	}
	for _, w := range decl.Workloads {
		declared = append(declared, "workload "+w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	for _, d := range endToEnd {
		emitted = append(emitted, "e2e "+d.name+" "+d.unit+" "+d.better)
	}
	for _, d := range perLayer {
		emitted = append(emitted, "layer "+d.name+" "+d.unit+" "+d.better)
	}
	for _, wl := range workloads {
		emitted = append(emitted, "workload "+wl.name)
	}
	for _, d := range slices.Concat(endToEnd, perLayer) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q is not a contract name", d.name)
		}
	}
	sort.Strings(declared)
	sort.Strings(emitted)
	if !slices.Equal(declared, emitted) {
		t.Errorf("BENCHMARK.json and the program disagree:\ndeclared %q\nemitted  %q", declared, emitted)
	}
	if decl.bound("setup_s") == 0 {
		t.Error("setup_s is missing or unbounded")
	}
}

// resultLine is the contract's last line of output.
type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func parseLine(t *testing.T, res *runResult, want []metricDecl) resultLine {
	t.Helper()
	var line resultLine
	if err := json.Unmarshal([]byte(res.jsonLine()), &line); err != nil {
		t.Fatalf("result line does not parse: %v", err)
	}
	if len(line.Metrics) != len(want) {
		t.Errorf("%d metrics on the result line, want %d", len(line.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := line.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s missing from the result line", d.name)
		} else if m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %v %s, want a finite value in %s", d.name, m.Value, m.Unit, d.unit)
		}
	}
	return line
}

// TestSmoke runs all five workloads at smoke size, untraced and traced, and
// asserts what the benchmark promises about itself: the output checks pass,
// the traced pass reproduces the untraced digest, the result line carries
// exactly the declared metrics, and the span file nests.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.name, func(t *testing.T) {
			o := options{seed: 7, smoke: true}
			plain, err := runUntraced(io.Discard, wl, o)
			if err != nil {
				t.Fatal(err)
			}
			line := parseLine(t, plain, endToEnd)
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("untraced: correct=%v attempted=%d failed=%d", line.Correct, line.Attempted, line.Failed)
			}
			for name, m := range line.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", name, m.Value)
				}
			}

			spans := filepath.Join(t.TempDir(), "spans.json")
			traced, err := runTraced(io.Discard, wl, o, spans)
			if err != nil {
				t.Fatal(err)
			}
			tl := parseLine(t, traced, perLayer)
			if !tl.Correct || tl.Failed != 0 {
				t.Errorf("traced: correct=%v failed=%d", tl.Correct, tl.Failed)
			}
			if tl.Metrics["trace.digest_match"].Value != 1 {
				t.Error("traced pass did not reproduce its untraced twin's digest")
			}
			if plain.digest == "" || plain.digest != traced.digest {
				t.Errorf("pass 0 digest: untraced run %q, traced run %q", plain.digest, traced.digest)
			}
			checkSpanFile(t, spans)
		})
	}
}

// checkSpanFile re-reads the written spans and checks the nesting promise on
// the file itself: every non-root span names an existing parent and lies
// inside it.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []struct {
			ID      int    `json:"id"`
			Parent  int    `json:"parent"`
			Name    string `json:"name"`
			TraceID string `json:"trace_id"`
			StartNs int64  `json:"start_ns"`
			EndNs   int64  `json:"end_ns"`
		}
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("span file does not parse: %v", err)
	}
	if len(doc.Spans) < 2 {
		t.Fatalf("%d spans, want a run span and at least one pass", len(doc.Spans))
	}
	for i, s := range doc.Spans {
		if s.ID != i || s.TraceID == "" {
			t.Fatalf("span %d has id %d and trace id %q", i, s.ID, s.TraceID)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= len(doc.Spans) {
			t.Fatalf("span %d names parent %d of %d", i, s.Parent, len(doc.Spans))
		}
		if p := doc.Spans[s.Parent]; s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			t.Fatalf("span %d (%s) [%d,%d] lies outside its parent %s [%d,%d]", i, s.Name, s.StartNs, s.EndNs, p.Name, p.StartNs, p.EndNs)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
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

// TestAggQuantile checks the histogram's resolution promise: a quantile is
// within one sub-bucket (12.5 %) of the exact value.
func TestAggQuantile(t *testing.T) {
	var a agg
	for ns := int64(1); ns <= 100000; ns++ {
		a.add(ns)
	}
	for _, q := range []float64{0.5, 0.99} {
		got, want := a.quantile(q), q*100000
		if math.Abs(got-want)/want > 0.125 {
			t.Errorf("quantile(%v) = %v, want about %v", q, got, want)
		}
	}
	for ns := int64(0); ns < 1<<20; ns += 37 {
		i := histIndex(ns)
		if lo, hi := histLower(i), histLower(i+1); float64(ns) < lo || float64(ns) >= hi {
			t.Fatalf("%d ns landed in bucket %d = [%v, %v)", ns, i, lo, hi)
		}
	}
}
