// Package workload builds the workflow populations used by the paper's
// evaluation: the 33-job demonstration topology of Fig 7, the Yahoo!-derived
// set of 61 workflows / 180 jobs behind Fig 8-10 and Fig 13, and general
// random DAGs drawn from the trace marginals.
//
// The paper's actual Fig 7 drawing is not legible in the source text and the
// Yahoo workflow configurations are proprietary, so both are reconstructions
// that preserve the published structural facts; see DESIGN.md for the
// substitution rationale.
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/plan"
	"repro/internal/priority"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/workflow"
)

// Fig7 builds the paper's 33-job demonstration workflow: three parallel
// ingest pipelines that fan out, re-join, feed a shared analytics layer, and
// converge on final reports — long unlock chains plus wide parallel stages,
// the regime where workflow-aware scheduling matters.
//
// scale multiplies all task durations. The Fig 11 experiments run at
// scale 1.70 (see experiments.DefaultFig11Config), calibrated so the paper's
// 32-slave cluster (64 map + 32 reduce slots) sits in the contended-but-
// feasible regime where scheduler choice decides deadline satisfaction.
func Fig7(name string, scale float64, release, deadline simtime.Time) *workflow.Workflow {
	d := func(sec float64) time.Duration {
		return time.Duration(sec * scale * float64(time.Second))
	}
	b := workflow.NewBuilder(name)

	// Stage 0: three wide ingest jobs (3 jobs; 33 total).
	ingests := make([]string, 3)
	for i := range ingests {
		ingests[i] = fmt.Sprintf("ingest-%d", i)
		b.Job(ingests[i], 48, 8, d(60), d(150))
	}
	// Stage 1: four transforms per pipeline (12 jobs).
	transforms := make([][]string, 3)
	for i := range transforms {
		transforms[i] = make([]string, 4)
		for k := range transforms[i] {
			name := fmt.Sprintf("transform-%d-%d", i, k)
			transforms[i][k] = name
			// Within-stage duration spread: distinguishes LPF (which sees
			// path lengths) from HLF (which sees only levels).
			b.Job(name, 12, 4, d(float64(35+10*k)), d(float64(100+15*k)), ingests[i])
		}
	}
	// Stage 2: one join per pipeline, each needing all four transforms
	// (3 jobs).
	joins := make([]string, 3)
	for i := range joins {
		joins[i] = fmt.Sprintf("join-%d", i)
		b.Job(joins[i], 24, 8, d(60), d(210), transforms[i]...)
	}
	// Stage 3: eight analytics jobs over mixed joins (8 jobs).
	analytics := make([]string, 8)
	for i := range analytics {
		analytics[i] = fmt.Sprintf("analytic-%d", i)
		deps := []string{joins[i%3]}
		if i%2 == 0 {
			deps = append(deps, joins[(i+1)%3])
		}
		b.Job(analytics[i], 14, 4, d(float64(30+3*i)), d(float64(120+6*i)), deps...)
	}
	// Stage 4: four aggregators, each over two analytics (4 jobs).
	aggs := make([]string, 4)
	for i := range aggs {
		aggs[i] = fmt.Sprintf("aggregate-%d", i)
		b.Job(aggs[i], 10, 4, d(30), d(170), analytics[2*i], analytics[2*i+1])
	}
	// Stage 5: two reports and a final publish (3 jobs; total 33).
	b.Job("report-0", 6, 2, d(30), d(130), aggs[0], aggs[1])
	b.Job("report-1", 6, 2, d(30), d(130), aggs[2], aggs[3])
	b.Job("publish", 4, 1, d(25), d(110), "report-0", "report-1")

	return b.MustBuild(release, deadline)
}

// DeadlineScheme selects how the Yahoo population's deadlines are assigned.
type DeadlineScheme int

// Deadline schemes.
const (
	// DeadlineSLA models production SLAs: the population is a batch of
	// submissions split into a tight cohort, due TightAlpha times its own
	// aggregate work per ReferenceSlots after the batch starts, and a
	// loose cohort due LooseFactor times later. Shared deadlines are the
	// regime the paper evaluates (its Fig 11 workflows' deadlines differ
	// by ~15%); they expose EDF's within-cohort serialization.
	DeadlineSLA DeadlineScheme = iota
	// DeadlineStretch draws a per-workflow deadline stretch uniformly from
	// [StretchMin, StretchMax] over the workflow's own best-effort
	// makespan. Used by the deadline-scheme ablation.
	DeadlineStretch
)

// YahooConfig parameterizes the Yahoo-derived workflow population.
type YahooConfig struct {
	// Seed drives all sampling.
	Seed int64
	// Workflows, Jobs, SingleJob, and MaxJobs pin the published
	// composition: 61 workflows over 180 jobs, 15 of them single-job, the
	// largest containing 12 jobs.
	Workflows, Jobs, SingleJob, MaxJobs int
	// Trace supplies the per-job statistics.
	Trace trace.Params
	// ReleaseWindow spreads submissions uniformly over [0, ReleaseWindow].
	ReleaseWindow time.Duration
	// Scheme selects deadline assignment.
	Scheme DeadlineScheme
	// TightAlpha and LooseFactor shape DeadlineSLA: the tight cohort's
	// deadline is TightAlpha * (cohort serial work / ReferenceSlots); the
	// loose cohort's is LooseFactor times that.
	TightAlpha, LooseFactor float64
	// ReferenceSlots is the capacity reference for both schemes (the
	// cluster size deadlines are negotiated against).
	ReferenceSlots int
	// StretchMin and StretchMax bound DeadlineStretch's per-workflow
	// stretch. Stretch near 1 is a tight deadline.
	StretchMin, StretchMax float64
	// DeadlineFloor is the minimum relative deadline: production SLOs are
	// set in minutes or hours even for small workflows.
	DeadlineFloor time.Duration
}

// DefaultYahooConfig matches the paper's composition with task statistics
// scaled to keep experiments fast while preserving the Fig 5/6 shapes, and a
// deadline tightness that puts a 400-560-slot cluster in the paper's "less
// than adequate but more than scarce" regime.
func DefaultYahooConfig() YahooConfig {
	return YahooConfig{
		Seed:           1,
		Workflows:      61,
		Jobs:           180,
		SingleJob:      15,
		MaxJobs:        12,
		Trace:          trace.DefaultParams().Scale(1.0, 0.5),
		ReleaseWindow:  3 * time.Minute,
		Scheme:         DeadlineSLA,
		TightAlpha:     1.30,
		LooseFactor:    3,
		ReferenceSlots: 480,
		StretchMin:     1.2,
		StretchMax:     2.8,
		DeadlineFloor:  10 * time.Minute,
	}
}

// Yahoo builds the workflow population. Workflow i is named "yahoo-NN".
func Yahoo(cfg YahooConfig) ([]*workflow.Workflow, error) {
	if cfg.Workflows <= 0 || cfg.Jobs < cfg.Workflows || cfg.SingleJob > cfg.Workflows {
		return nil, fmt.Errorf("workload: inconsistent composition %d workflows / %d jobs / %d single",
			cfg.Workflows, cfg.Jobs, cfg.SingleJob)
	}
	if cfg.MaxJobs < 2 {
		return nil, fmt.Errorf("workload: MaxJobs %d, want >= 2", cfg.MaxJobs)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	gen := trace.NewGeneratorParams(cfg.Seed+1, cfg.Trace)

	sizes, err := sampleSizes(rng, cfg)
	if err != nil {
		return nil, err
	}

	flows := make([]*workflow.Workflow, 0, cfg.Workflows)
	for i, size := range sizes {
		name := fmt.Sprintf("yahoo-%02d", i)
		release := simtime.Epoch.Add(time.Duration(rng.Float64() * float64(cfg.ReleaseWindow)))
		w, err := RandomDAG(rng, gen, name, size, release)
		if err != nil {
			return nil, err
		}
		flows = append(flows, w)
	}
	if err := assignDeadlines(rng, flows, cfg); err != nil {
		return nil, err
	}
	return flows, nil
}

// assignDeadlines applies cfg.Scheme to the population.
func assignDeadlines(rng *rand.Rand, flows []*workflow.Workflow, cfg YahooConfig) error {
	switch cfg.Scheme {
	case DeadlineSLA:
		if cfg.TightAlpha <= 0 || cfg.LooseFactor < 1 || cfg.ReferenceSlots <= 0 {
			return fmt.Errorf("workload: bad SLA parameters %+v", cfg)
		}
		// Alternate multi-job workflows between the tight and loose
		// cohorts; single-job workflows (which the paper's evaluation
		// removes) always land in the loose cohort so they cannot skew
		// the tight cohort's work budget.
		var tightWork time.Duration
		k := 0
		inTight := make([]bool, len(flows))
		for i, w := range flows {
			if len(w.Jobs) < 2 {
				continue
			}
			if k%2 == 0 {
				inTight[i] = true
				tightWork += w.SerialWork()
			}
			k++
		}
		tight := time.Duration(cfg.TightAlpha * float64(tightWork) / float64(cfg.ReferenceSlots))
		if tight < cfg.DeadlineFloor {
			tight = cfg.DeadlineFloor
		}
		// No operator signs an SLA a workflow cannot meet even alone on the
		// reference cluster: structurally infeasible flows take the loose
		// deadline instead.
		for i, w := range flows {
			if !inTight[i] {
				continue
			}
			makespan, err := estimate(w, cfg.ReferenceSlots)
			if err != nil {
				return err
			}
			if makespan > tight-w.Release.Duration() {
				inTight[i] = false
			}
		}
		for i, w := range flows {
			if inTight[i] {
				w.Deadline = simtime.Epoch.Add(tight)
			} else {
				w.Deadline = simtime.Epoch.Add(time.Duration(cfg.LooseFactor * float64(tight)))
			}
			if w.Deadline <= w.Release {
				w.Deadline = w.Release.Add(cfg.DeadlineFloor)
			}
		}
	case DeadlineStretch:
		for _, w := range flows {
			stretch := cfg.StretchMin + rng.Float64()*(cfg.StretchMax-cfg.StretchMin)
			if err := AssignDeadline(w, cfg.ReferenceSlots, stretch); err != nil {
				return err
			}
			if rel := w.RelativeDeadline(); rel < cfg.DeadlineFloor {
				w.Deadline = w.Release.Add(cfg.DeadlineFloor)
			}
		}
	default:
		return fmt.Errorf("workload: unknown deadline scheme %d", cfg.Scheme)
	}
	return nil
}

// sampleSizes draws the per-workflow job counts: SingleJob ones, the rest in
// [2, MaxJobs] summing to Jobs, with at least one workflow at MaxJobs.
func sampleSizes(rng *rand.Rand, cfg YahooConfig) ([]int, error) {
	multi := cfg.Workflows - cfg.SingleJob
	remaining := cfg.Jobs - cfg.SingleJob
	lo, hi := 2*multi, cfg.MaxJobs*multi
	if remaining < lo || remaining > hi {
		return nil, fmt.Errorf("workload: cannot place %d jobs into %d multi-job workflows of 2..%d",
			remaining, multi, cfg.MaxJobs)
	}
	sizes := make([]int, cfg.Workflows)
	for i := 0; i < cfg.SingleJob; i++ {
		sizes[i] = 1
	}
	// Start every multi-job workflow at 2 and sprinkle the remaining jobs,
	// seeding one workflow at MaxJobs so the published maximum is present.
	for i := cfg.SingleJob; i < cfg.Workflows; i++ {
		sizes[i] = 2
	}
	left := remaining - 2*multi
	if left >= cfg.MaxJobs-2 {
		sizes[cfg.SingleJob] = cfg.MaxJobs
		left -= cfg.MaxJobs - 2
	}
	for left > 0 {
		i := cfg.SingleJob + rng.Intn(multi)
		if sizes[i] < cfg.MaxJobs {
			sizes[i]++
			left--
		}
	}
	// Shuffle so single-job workflows are not clustered at the front.
	rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	return sizes, nil
}

// RandomDAG builds a workflow of size jobs drawn from gen, wired into a
// random DAG: each non-root job depends on one or two uniformly chosen
// earlier jobs. The deadline is left at +inf; use AssignDeadline.
func RandomDAG(rng *rand.Rand, gen *trace.Generator, name string, size int, release simtime.Time) (*workflow.Workflow, error) {
	if size <= 0 {
		return nil, fmt.Errorf("workload: workflow size %d", size)
	}
	b := workflow.NewBuilder(name)
	names := make([]string, size)
	for i := 0; i < size; i++ {
		names[i] = fmt.Sprintf("job-%02d", i)
		js := gen.Job()
		var after []string
		if i > 0 {
			// Production workflows are pipeline-shaped (Oozie chains of
			// extract -> transform -> aggregate stages), so bias edges
			// toward the immediately preceding job.
			switch r := rng.Float64(); {
			case r < 0.50: // extend the chain
				after = append(after, names[i-1])
			case r < 0.75: // one random earlier parent
				after = append(after, names[rng.Intn(i)])
			case r < 0.90 && i >= 2: // join of two distinct parents
				a, c := rng.Intn(i), rng.Intn(i)
				for c == a {
					c = rng.Intn(i)
				}
				after = append(after, names[a], names[c])
			default: // extra root
			}
		}
		b.Job(names[i], js.Maps, js.Reduces, js.MapTime, js.ReduceTime, after...)
	}
	return b.Build(release, simtime.MaxTime)
}

// AssignDeadline sets w's deadline to release + stretch * (the makespan of
// w running alone on slots slots under HLF order) — the best-effort span a
// client would estimate against the full cluster. stretch <= 1 yields an
// unmeetable-under-contention deadline; larger values add slack.
func AssignDeadline(w *workflow.Workflow, slots int, stretch float64) error {
	makespan, err := estimate(w, slots)
	if err != nil {
		return fmt.Errorf("workload: assigning deadline for %q: %w", w.Name, err)
	}
	w.Deadline = w.Release.Add(time.Duration(stretch * float64(makespan)))
	return nil
}

// estimate is the single-slot-pool HLF makespan estimate deadline assignment
// rests on: one makespan-only Algorithm 1 run that builds no plan.
func estimate(w *workflow.Workflow, slots int) (time.Duration, error) {
	ranks, err := priority.HLF{}.Rank(w)
	if err != nil {
		return 0, fmt.Errorf("ranking jobs: %w", err)
	}
	k, err := plan.Bind(w, ranks)
	if err != nil {
		return 0, err
	}
	defer k.Release()
	makespan, _, err := k.Makespan(slots, plan.Unlimited)
	return makespan, err
}

// Recur builds n instances of a recurring workflow: instance k is released
// at w.Release + k*period with its deadline shifted by the same amount, as
// Oozie's recurrence configuration would submit it. Instance names get a
// ".k" suffix.
func Recur(w *workflow.Workflow, n int, period time.Duration) []*workflow.Workflow {
	out := make([]*workflow.Workflow, 0, n)
	for k := 0; k < n; k++ {
		inst := w.Clone()
		inst.Name = fmt.Sprintf("%s.%d", w.Name, k+1)
		shift := time.Duration(k) * period
		inst.Release = w.Release.Add(shift)
		inst.Deadline = w.Deadline.Add(shift)
		out = append(out, inst)
	}
	return out
}

// MultiJob filters flows to those with more than one job — the paper removes
// single-job workflows from the Fig 8-10 evaluation "to even the bias".
func MultiJob(flows []*workflow.Workflow) []*workflow.Workflow {
	out := make([]*workflow.Workflow, 0, len(flows))
	for _, w := range flows {
		if len(w.Jobs) > 1 {
			out = append(out, w)
		}
	}
	return out
}
