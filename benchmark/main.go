// Command benchmark is this repository's one benchmark: five named
// workloads over the whole path a workflow travels (plan → admit → route →
// schedule → complete, plus the simulator core, the live control plane and
// the planner on their own), three end-to-end metrics measured with tracing
// off, and a per-layer ledger timed from outside the program. README.md in
// this directory says how to run it and how to read what it prints;
// BENCHMARK.json at the repository root declares it.
//
//	go run ./benchmark --workload front_door --seed 1 --seconds 10 --trace 0
//	go run ./benchmark --workload front_door --seed 1 --seconds 10 --trace 1 --trace-out spans.json
//	go run ./benchmark                # all five workloads, untraced
//	go run ./benchmark --repeat 5     # A/A: spreads against the bounds
package main

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceOut string
	repeat   int
	baseline string
	smoke    bool
}

// setupRepeats is how many times an untraced run sets the workload up; the
// reported setup_s is their median.
const setupRepeats = 3

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all five, one after the other)")
	flag.Int64Var(&o.seed, "seed", 1, "seed every corpus is generated from; the only source of randomness")
	flag.Float64Var(&o.seconds, "seconds", 10, "timed wall to measure per workload")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer ledger, wrappers on")
	flag.StringVar(&o.traceOut, "trace-out", "", "with --trace 1: write the spans to this file (one workload) or file.<workload> (all)")
	flag.IntVar(&o.repeat, "repeat", 0, "A/A mode: run the untraced suite this many times on different seeds and check every spread against its bound in BENCHMARK.json")
	flag.StringVar(&o.baseline, "baseline-out", "", "with --repeat: also write the medians and quartiles to this file")
	flag.BoolVar(&o.smoke, "smoke", false, "self-test sizes: scale 1, one set-up, one pass")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if o.trace != 0 && o.trace != 1 {
		fatal(fmt.Errorf("--trace %d, want 0 or 1", o.trace))
	}
	selected := workloads
	if o.workload != "" {
		wl := workloadByName(o.workload)
		if wl == nil {
			fatal(fmt.Errorf("unknown workload %q", o.workload))
		}
		selected = []workloadDef{*wl}
	}
	// Refuse to run from anywhere but a checkout of the program: the
	// benchmark measures the repository it sits in, not itself.
	decl, err := loadDeclaration("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}

	printProvenance(os.Stdout, o)
	if o.repeat > 0 {
		if err := repeatMode(os.Stdout, selected, o, decl); err != nil {
			fatal(err)
		}
		return
	}
	ok := true
	for i := range selected {
		wl := &selected[i]
		var res *runResult
		if o.trace == 1 {
			out := o.traceOut
			if out != "" && len(selected) > 1 {
				out += "." + wl.name
			}
			res, err = runTraced(os.Stdout, wl, o, out)
		} else {
			res, err = runUntraced(os.Stdout, wl, o)
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", wl.name, err))
		}
		ok = ok && res.correct
		// The contract's result: one JSON object, last on standard output
		// (in suite mode, last of each workload's block).
		fmt.Println(res.jsonLine())
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// declaration is BENCHMARK.json as this program needs it.
type declaration struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

func loadDeclaration(path string) (*declaration, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var d declaration
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

func (d *declaration) bound(metric string) float64 {
	for _, m := range d.EndToEnd {
		if m.Name == metric {
			return m.Bound
		}
	}
	return 0
}

// printProvenance prints the host and provenance header every run carries.
func printProvenance(w io.Writer, o options) {
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d %s %s/%s kernel=%s\n",
		runtime.NumCPU(), procs(), runtime.Version(), runtime.GOOS, runtime.GOARCH, kernelRelease())
	fmt.Fprintf(w, "provenance: commit=%s start=%s seed=%d seconds=%g trace=%d smoke=%v\n",
		commit(), time.Now().UTC().Format(time.RFC3339), o.seed, o.seconds, o.trace, o.smoke)
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}

// commit names the source this binary measures: the revision the toolchain
// stamped, else git's answer when the working directory is itself a
// checkout, else "unknown" (the acceptance driver runs from an export).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	return "unknown"
}

// runResult is one workload's outcome in one run.
type runResult struct {
	correct   bool
	attempted int
	failed    int
	decls     []metricDecl
	metrics   map[string]float64
	// digest is pass 0's outcome digest in hex: a function of the seed and
	// the program alone, so parent and change can be diffed by eye.
	digest string
}

func (r *runResult) jsonLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	doc := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]value{}}
	for _, d := range r.decls {
		doc.Metrics[d.name] = value{r.metrics[d.name], d.unit}
	}
	b, err := json.Marshal(&doc)
	if err != nil {
		fatal(err)
	}
	return string(b)
}

// passes accumulates a run's passes and applies the check that spans them:
// every pass over the run's first corpus — each set-up's warm-up pass, timed
// pass 0, its traced twin — must produce the same outcome digest.
type passes struct {
	res      *runResult
	ref      *[32]byte
	failures []string
}

func newPasses(decls []metricDecl) *passes {
	return &passes{res: &runResult{correct: true, decls: decls, metrics: map[string]float64{}}}
}

func (ps *passes) problem(format string, args ...any) {
	ps.res.correct = false
	if len(ps.failures) < 10 {
		ps.failures = append(ps.failures, fmt.Sprintf(format, args...))
	}
}

// record folds one pass in. Counted passes add to attempted/failed; a pass
// over the first corpus is held to the reference digest.
func (ps *passes) record(label string, out *passOut, counted, firstCorpus bool) {
	if counted {
		ps.res.attempted += out.ops
		ps.res.failed += out.failed
	}
	for _, f := range out.failures {
		ps.problem("%s: %s", label, f)
	}
	if out.failed > 0 {
		ps.res.correct = false
	}
	if !firstCorpus {
		return
	}
	if ps.ref == nil {
		ps.ref = &out.digest
		ps.res.digest = hex.EncodeToString(out.digest[:])
	} else if *ps.ref != out.digest {
		ps.problem("%s: outcome digest %s differs from the first pass over the same corpus (%s)",
			label, hex.EncodeToString(out.digest[:8]), hex.EncodeToString(ps.ref[:8]))
	}
}

func (ps *passes) report(w io.Writer, seed int64) {
	fmt.Fprintf(w, "  digest of pass 0 (seed %d): %s\n", seed, ps.res.digest)
	for _, f := range ps.failures {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", f)
	}
	fmt.Fprintf(w, "  checks: %d operations attempted, %d failed, correct=%v\n", ps.res.attempted, ps.res.failed, ps.res.correct)
}

// runUntraced measures the end-to-end metrics. Set-up — corpus generation,
// the plans that belong to set-up, and one untimed warm-up pass that fills
// the program's pools — runs several times for a steady setup_s. Then timed
// passes run for o.seconds of pass wall, pass i over the corpus of seed + i
// (set up untimed between passes), so the run's medians are taken over as
// many different corpora as it has passes.
func runUntraced(w io.Writer, wl *workloadDef, o options) (*runResult, error) {
	ps := newPasses(endToEnd)
	setups := setupRepeats
	if o.smoke {
		setups = 1
	}
	var first instance
	var setupS []float64
	for s := 0; s < setups; s++ {
		first = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if first, err = wl.setup(o.seed, o.smoke); err != nil {
			return nil, err
		}
		warm, err := first.run(passOpts{})
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		ps.record(fmt.Sprintf("warm-up %d", s), warm, false, true)
	}
	fmt.Fprintf(w, "workload %s (operations: %s); pass i runs the corpus of seed %d + i, pass 0's is:\n", wl.name, wl.op, o.seed)
	first.describe(w)

	var wallMs, wfRate, taskRate []float64
	var timed time.Duration
	total := facts{}
	loopStart := time.Now()
	for i := 0; i == 0 || (timed.Seconds() < o.seconds && time.Since(loopStart).Seconds() < 3*o.seconds+30); i++ {
		inst := first
		if i > 0 {
			var err error
			if inst, err = wl.setup(o.seed+int64(i), o.smoke); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		out, err := inst.run(passOpts{})
		if err != nil {
			return nil, err
		}
		ps.record(fmt.Sprintf("pass %d", i), out, true, i == 0)
		timed += out.wall
		total.add(out.facts)
		wallMs = append(wallMs, float64(out.wall)/1e6)
		wfRate = append(wfRate, out.facts[fWorkflows]/out.wall.Seconds())
		taskRate = append(taskRate, out.facts[fTasks]/out.wall.Seconds())
	}
	// Each rate is total work over total timed wall. The passes run
	// different corpora, and what varies between runs is mostly which
	// corpora a seed draws, not the clock: over that, the mean is the
	// steadier estimate, and the per-pass median beside it would show a
	// stray slow pass.
	ps.res.metrics["workflows_per_s"] = total[fWorkflows] / timed.Seconds()
	ps.res.metrics["tasks_per_s"] = total[fTasks] / timed.Seconds()
	ps.res.metrics["setup_s"] = median(setupS)

	fmt.Fprintf(w, "  passes: %d in %.2f s of timed wall (%.0f workflows, %.0f tasks); pass wall ms %s\n",
		len(wallMs), timed.Seconds(), total[fWorkflows], total[fTasks], quartileText(wallMs))
	fmt.Fprintf(w, "  workflows_per_s %14.2f 1/s   per-pass %s\n", ps.res.metrics["workflows_per_s"], quartileText(wfRate))
	fmt.Fprintf(w, "  tasks_per_s     %14.2f 1/s   per-pass %s\n", ps.res.metrics["tasks_per_s"], quartileText(taskRate))
	fmt.Fprintf(w, "  setup_s         %14.4f s     %d set-ups %s\n", median(setupS), len(setupS), quartileText(setupS))
	printFree(w, total)
	ps.report(w, o.seed)
	return ps.res, nil
}

// printFree prints the model statistics that come free from the results of
// an untraced run. They are per-layer metrics (a --trace 1 run reports them
// by name); here they are context for the reader.
func printFree(w io.Writer, f facts) {
	if f[fResolved] > 0 {
		fmt.Fprintf(w, "  (free) deadline miss ratio %.4f over %.0f workflows", f.ratio(fMisses, fResolved), f[fResolved])
		if f[fRejects] > 0 {
			fmt.Fprintf(w, "; rejected %.4f; missed among admitted %.4f", f.ratio(fRejects, fResolved), f.ratio(fAdmittedMiss, fAdmitted))
		}
		fmt.Fprintf(w, "; achieved utilisation %.3f; %.2f events/task\n", f.ratio(fBusySlotNs, fCapSlotNs), f.ratio(fEvents, fRanTasks))
	}
	if f[fPlans] > 0 {
		fmt.Fprintf(w, "  (free) %.0f plans, cache hit ratio %.4f, %.2f search iterations/plan, infeasible %.4f\n",
			f[fPlans], f.ratio(fPlanHits, fPlans), f.ratio(fPlanIters, fPlans), f.ratio(fPlanInfeasible, fPlans))
	}
	if f[fBeats] > 0 {
		fmt.Fprintf(w, "  (free) %.0f heartbeats, %.0f per second of drain, %.2f assignments per refill\n",
			f[fBeats], f.ratio(fBeats, fLiveNs)*1e9, f.ratio(fAssignments, fRefills))
	}
}

func quartileText(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("median %.4g, q1 %.4g, q3 %.4g, n %d", median(xs), q1, q3, len(xs))
}

// runTraced gathers the per-layer ledger: every pass runs twice over the same
// corpus, first untraced (with the measurements that only cost time outside
// the timed region), then with the wrappers on. The two must produce the
// same outcome digest — otherwise the wrappers changed behaviour and the
// ledger is void — and the ratio of their walls is what looking costs.
func runTraced(w io.Writer, wl *workloadDef, o options, spanFile string) (*runResult, error) {
	ps := newPasses(perLayer)
	tr := newTracer()
	root := tr.begin("run", "", -1)
	tr.ids[root] = fmt.Sprintf("%s/%d", wl.name, o.seed)

	first, err := wl.setup(o.seed, o.smoke)
	if err != nil {
		return nil, err
	}
	warm, err := first.run(passOpts{})
	if err != nil {
		return nil, err
	}
	ps.record("warm-up", warm, false, true)
	fmt.Fprintf(w, "workload %s (operations: %s), traced; pass i runs the corpus of seed %d + i, pass 0's is:\n", wl.name, wl.op, o.seed)
	first.describe(w)

	l := &ledger{plain: facts{}, traced: facts{}, aggs: map[string]*agg{}, host: map[string]float64{},
		emptyNs: tr.emptyNs, pairNs: tr.pairNs, digestsMatch: true}
	var timed time.Duration
	n := 0
	for i := 0; i == 0 || timed.Seconds() < o.seconds; i++ {
		inst := first
		if i > 0 {
			if inst, err = wl.setup(o.seed+int64(i), o.smoke); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		h0 := readHost()
		plain, err := inst.run(passOpts{ledger: true})
		if err != nil {
			return nil, err
		}
		h0.deltaInto(l.host)
		if plain.after != nil {
			if err := plain.after(); err != nil {
				return nil, err
			}
		}
		ps.record(fmt.Sprintf("pass %d", i), plain, true, i == 0)

		runtime.GC()
		pt := tr.pass(wl.name, o.seed+int64(i), root)
		traced, err := inst.run(passOpts{pt: pt})
		if err != nil {
			return nil, err
		}
		pt.finish(traced.aggs)
		ps.record(fmt.Sprintf("traced pass %d", i), traced, false, i == 0)
		if traced.digest != plain.digest {
			l.digestsMatch = false
		}
		l.plain.add(plain.facts)
		l.traced.add(traced.facts)
		for name, a := range traced.aggs {
			if l.aggs[name] == nil {
				l.aggs[name] = new(agg)
			}
			l.aggs[name].merge(a)
		}
		timed += plain.wall + traced.wall
		n++
	}
	if l.extras, err = first.extras(); err != nil {
		return nil, err
	}
	tr.end(root)
	if err := tr.verifyNesting(); err != nil {
		ps.problem("%v", err)
	}
	if !l.digestsMatch {
		ps.problem("a traced pass produced a different outcome digest than its untraced twin: the wrappers changed behaviour, the ledger is void")
	}
	if l.plain[fReplayBroken] > 0 {
		ps.problem("%.0f member replays did not reproduce the member's result; federation.self_s is not reported", l.plain[fReplayBroken])
	}
	if spanFile != "" {
		if err := tr.write(spanFile); err != nil {
			return nil, err
		}
	}

	ps.res.metrics = l.metrics()
	fmt.Fprintf(w, "  passes: %d untraced (%.2f s of timed wall) + %d traced (%.2f s); %d spans; timer pair %.1f ns (an empty interval reads %.1f ns)\n",
		n, l.plain[fWallNs]/1e9, n, l.traced[fWallNs]/1e9, len(tr.spans), tr.pairNs, tr.emptyNs)
	samples := map[string]int64{
		"admission.decide_us": l.agg(aggDecide).count, "federation.route_us": l.agg(aggRoute).count,
		"live.heartbeat_ns": l.agg(aggHeartbeat).count,
		"planner.cold_us":   int64(l.extras["samples.planner.cold_us"]), "planner.hit_us": int64(l.extras["samples.planner.hit_us"]),
	}
	// Print layer by layer; a layer this workload never enters (every metric
	// 0) gets one line, not one per metric.
	nonZero := map[string]bool{}
	for _, d := range perLayer {
		if ps.res.metrics[d.name] != 0 {
			nonZero[layerOf(d.name)] = true
		}
	}
	var idle []string
	for _, d := range perLayer {
		layer := layerOf(d.name)
		if !nonZero[layer] {
			if len(idle) == 0 || idle[len(idle)-1] != layer {
				idle = append(idle, layer)
			}
			continue
		}
		line := fmt.Sprintf("  %-32s %16.4f %s", d.name, ps.res.metrics[d.name], d.unit)
		for prefix, cnt := range samples {
			if strings.HasPrefix(d.name, prefix+"_p") {
				line += fmt.Sprintf("   (%d samples)", cnt)
			}
		}
		fmt.Fprintln(w, line)
	}
	if len(idle) > 0 {
		fmt.Fprintf(w, "  every metric of these layers is 0 on this workload: %s\n", strings.Join(idle, ", "))
	}
	if ns := l.extras["fig8.serial_ns_per_event"]; ns > 0 {
		fmt.Fprintf(w, "  (reconciliation) pass 0's corpus at Workers=1: %.1f ns/event; all passes at Workers=%d: %.1f ns/event\n",
			ns, procs(), ps.res.metrics["cluster.ns_per_event"])
	}
	ps.report(w, o.seed)
	return ps.res, nil
}

// layerOf returns the layer a per-layer metric belongs to: its name up to
// the first dot.
func layerOf(metric string) string {
	layer, _, _ := strings.Cut(metric, ".")
	return layer
}

// hostReading is the process's resource counters at one instant.
type hostReading struct {
	cpu     time.Duration
	alloc   uint64
	gcPause uint64
}

func readHost() hostReading {
	var ru syscall.Rusage
	var h hostReading
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		h.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.alloc, h.gcPause = ms.TotalAlloc, ms.PauseTotalNs
	return h
}

// deltaInto adds what the process used since h was read to the host metrics.
func (h hostReading) deltaInto(m map[string]float64) {
	now := readHost()
	m["host.cpu_s"] += (now.cpu - h.cpu).Seconds()
	m["host.alloc_mb"] += float64(now.alloc-h.alloc) / (1 << 20)
	m["host.gc_pause_ms"] += float64(now.gcPause-h.gcPause) / 1e6
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		m["host.peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
}

// repeatMode is the A/A tool: the untraced run of every selected workload,
// n times on n different seeds (as the acceptance driver varies them), then
// for every (metric, workload) the median, the quartiles, and the spread —
// interquartile distance over median — against the metric's bound. setup_s is
// shown but, as in the driver, not held to its bound here. Any other spread
// over its bound is an error.
func repeatMode(w io.Writer, selected []workloadDef, o options, decl *declaration) error {
	type cell struct {
		Workload string    `json:"workload"`
		Metric   string    `json:"metric"`
		Unit     string    `json:"unit"`
		Median   float64   `json:"median"`
		Q1       float64   `json:"q1"`
		Q3       float64   `json:"q3"`
		Spread   float64   `json:"spread"`
		Bound    float64   `json:"bound"`
		Values   []float64 `json:"values"`
	}
	var cells []cell
	wide := false
	for i := range selected {
		wl := &selected[i]
		values := map[string][]float64{}
		for r := 0; r < o.repeat; r++ {
			ro := o
			ro.seed = o.seed + int64(1000*r)
			res, err := runUntraced(io.Discard, wl, ro)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.name, ro.seed, err)
			}
			if !res.correct {
				return fmt.Errorf("%s seed %d: output checks failed (%d of %d operations)", wl.name, ro.seed, res.failed, res.attempted)
			}
			for _, d := range endToEnd {
				values[d.name] = append(values[d.name], res.metrics[d.name])
			}
			fmt.Fprintf(w, "run %d/%d of %s (seed %d): %s\n", r+1, o.repeat, wl.name, ro.seed, res.jsonLine())
		}
		for _, d := range endToEnd {
			q1, q3 := quartiles(values[d.name])
			c := cell{wl.name, d.name, d.unit, median(values[d.name]), q1, q3, spread(values[d.name]), decl.bound(d.name), values[d.name]}
			cells = append(cells, c)
			verdict := "ok"
			if c.Spread > c.Bound {
				verdict = "WIDER THAN BOUND"
				if d.name != "setup_s" {
					wide = true
				} else {
					verdict += " (not held)"
				}
			}
			fmt.Fprintf(w, "%-14s %-16s median %14.4f %-4s q1 %14.4f q3 %14.4f spread %.4f bound %.2f %s\n",
				c.Workload, c.Metric, c.Median, c.Unit, c.Q1, c.Q3, c.Spread, c.Bound, verdict)
		}
	}
	if o.baseline != "" {
		doc := struct {
			Host     string  `json:"host"`
			Commit   string  `json:"commit"`
			Taken    string  `json:"taken"`
			Seconds  float64 `json:"seconds"`
			Repeats  int     `json:"repeats"`
			Baseline []cell  `json:"baseline"`
			Reminder string  `json:"note"`
		}{
			Host:     fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s kernel=%s", runtime.NumCPU(), procs(), runtime.Version(), kernelRelease()),
			Commit:   commit(),
			Taken:    time.Now().UTC().Format(time.RFC3339),
			Seconds:  o.seconds,
			Repeats:  o.repeat,
			Baseline: cells,
			Reminder: "this commit's own numbers; no gain is claimed against anything",
		}
		b, err := json.MarshalIndent(&doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.baseline, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if wide {
		return fmt.Errorf("a spread exceeds its bound")
	}
	return nil
}
