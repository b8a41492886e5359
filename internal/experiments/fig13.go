package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dsl"
	"repro/internal/plan"
	"repro/internal/priority"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Fig13aConfig parameterizes the scheduler-throughput experiment: how many
// AssignTask decisions per second each queue implementation sustains at a
// given queue length.
type Fig13aConfig struct {
	// QueueLengths lists the workflow-queue sizes to measure (the paper
	// sweeps 10^2 to 10^5+).
	QueueLengths []int
	// OpsBudget caps the operations measured per point; MaxDuration caps
	// wall time per point (the naive queue at 10^5 entries is slow).
	OpsBudget   int
	MaxDuration time.Duration
	// Seed drives entry generation and the DSL PRNG.
	Seed int64
}

// DefaultFig13aConfig matches the paper's sweep at sizes that complete
// quickly.
func DefaultFig13aConfig() Fig13aConfig {
	return Fig13aConfig{
		QueueLengths: []int{100, 1000, 10000, 100000},
		OpsBudget:    200000,
		MaxDuration:  2 * time.Second,
		Seed:         1,
	}
}

// Fig13aResult holds AssignTask throughput (operations per second) per queue
// backend and queue length.
type Fig13aResult struct {
	Config Fig13aConfig
	// Throughput[backend][k] is ops/sec at QueueLengths[k]. Backends are
	// keyed "DSL", "BST", "Naive".
	Order      []string
	Throughput map[string][]float64
}

// Fig13a measures AssignTask throughput. Unlike the simulators this
// experiment necessarily reads the wall clock.
func Fig13a(cfg Fig13aConfig) *Fig13aResult {
	out := &Fig13aResult{
		Config:     cfg,
		Order:      []string{core.QueueDSL.String(), core.QueueBST.String(), core.QueueNaive.String()},
		Throughput: make(map[string][]float64),
	}
	backends := map[string]func() dsl.Queue{
		"DSL":   func() dsl.Queue { return dsl.New(cfg.Seed) },
		"BST":   func() dsl.Queue { return dsl.NewBST() },
		"Naive": func() dsl.Queue { return dsl.NewNaive() },
	}
	for _, name := range out.Order {
		mk := backends[name]
		for _, n := range cfg.QueueLengths {
			out.Throughput[name] = append(out.Throughput[name], measureQueue(mk(), n, cfg))
		}
	}
	return out
}

// measureQueue fills q with n synthetic workflow entries and measures
// Best+Scheduled (one AssignTask) throughput.
func measureQueue(q dsl.Queue, n int, cfg Fig13aConfig) float64 {
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < n; i++ {
		reqs := syntheticReqs(rng)
		deadline := simtime.FromSeconds(600 + rng.Float64()*100000)
		q.Add(dsl.NewEntry(i, deadline, reqs), 0)
	}
	now := simtime.Epoch
	start := time.Now()
	ops := 0
	for ops < cfg.OpsBudget {
		now = now.Add(5 * time.Millisecond)
		e, ok := q.Best(now)
		if !ok {
			break
		}
		q.Scheduled(e.ID, now)
		ops++
		// Check the clock periodically, not per-op, to keep overhead out
		// of the measurement.
		if ops%64 == 0 && time.Since(start) > cfg.MaxDuration {
			break
		}
	}
	elapsed := time.Since(start)
	if elapsed <= 0 {
		return 0
	}
	return float64(ops) / elapsed.Seconds()
}

// syntheticReqs draws a small progress-requirement list shaped like real
// plans: a handful of waves tens of seconds apart.
func syntheticReqs(rng *rand.Rand) []plan.Req {
	n := 2 + rng.Intn(8)
	reqs := make([]plan.Req, 0, n)
	ttd := time.Duration(200+rng.Intn(2000)) * time.Second
	cum := 0
	for i := 0; i < n; i++ {
		cum += 1 + rng.Intn(40)
		reqs = append(reqs, plan.Req{TTD: ttd, Cum: cum})
		ttd -= time.Duration(10+rng.Intn(120)) * time.Second
	}
	return reqs
}

// Table renders Fig 13(a).
func (r *Fig13aResult) Table() *Table {
	t := &Table{
		Title:  "Fig 13(a): AssignTask throughput (calls/second) vs workflow queue length",
		Header: []string{"backend"},
	}
	for _, n := range r.Config.QueueLengths {
		t.Header = append(t.Header, fmt.Sprintf("%d", n))
	}
	for _, name := range r.Order {
		row := []string{"WOHA-" + name}
		for _, v := range r.Throughput[name] {
			row = append(row, fmt.Sprintf("%.0f", v))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig13bConfig parameterizes the plan-size experiment.
type Fig13bConfig struct {
	// Workflows is how many random workflows to sample.
	Workflows int
	// MaxJobs bounds workflow sizes (larger than the Yahoo set, to reach
	// the paper's 1400-task workflows).
	MaxJobs int
	// Slots is the plan-generation resource cap.
	Slots int
	// Seed drives sampling.
	Seed int64
}

// DefaultFig13bConfig samples enough workflows to cover 0 to ~1500 tasks.
func DefaultFig13bConfig() Fig13bConfig {
	return Fig13bConfig{Workflows: 120, MaxJobs: 25, Slots: 400, Seed: 1}
}

// Fig13bPoint is one (task count, plan size) sample.
type Fig13bPoint struct {
	Tasks int
	Bytes int
}

// Fig13bResult holds plan sizes per intra-workflow policy.
type Fig13bResult struct {
	Config Fig13bConfig
	Order  []string
	// Points[policy] are (tasks, encoded size) samples.
	Points map[string][]Fig13bPoint
}

// Fig13b generates scheduling plans for random workflows under each job
// priority policy and records encoded plan sizes.
func Fig13b(cfg Fig13bConfig) (*Fig13bResult, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	gen := trace.NewGeneratorParams(cfg.Seed+1, trace.DefaultParams().Scale(1.0, 0.6))
	out := &Fig13bResult{
		Config: cfg,
		Points: make(map[string][]Fig13bPoint),
	}
	for _, pol := range priority.All() {
		out.Order = append(out.Order, pol.Name())
	}
	for i := 0; i < cfg.Workflows; i++ {
		size := 1 + rng.Intn(cfg.MaxJobs)
		w, err := workload.RandomDAG(rng, gen, fmt.Sprintf("pf-%d", i), size, 0)
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		for _, pol := range priority.All() {
			p, err := plan.GenerateForPolicy(w, cfg.Slots, pol)
			if err != nil {
				return nil, fmt.Errorf("experiments: %w", err)
			}
			out.Points[pol.Name()] = append(out.Points[pol.Name()], Fig13bPoint{
				Tasks: w.TotalTasks(),
				Bytes: p.Size(),
			})
		}
	}
	return out, nil
}

// Table renders Fig 13(b) as mean plan size per task-count bucket.
func (r *Fig13bResult) Table() *Table {
	buckets := []int{100, 250, 500, 1000, 1500, 1 << 30}
	labels := []string{"<100", "100-250", "250-500", "500-1000", "1000-1500", ">1500"}
	t := &Table{
		Title:  "Fig 13(b): Scheduling plan size (KB) vs workflow task count",
		Header: append([]string{"tasks"}, r.Order...),
	}
	for bi, label := range labels {
		row := []string{label}
		for _, polName := range r.Order {
			sum, count, maxB := 0, 0, 0
			lo := 0
			if bi > 0 {
				lo = buckets[bi-1]
			}
			for _, pt := range r.Points[polName] {
				if pt.Tasks >= lo && pt.Tasks < buckets[bi] {
					sum += pt.Bytes
					count++
					if pt.Bytes > maxB {
						maxB = pt.Bytes
					}
				}
			}
			if count == 0 {
				row = append(row, "-")
			} else {
				row = append(row, fmt.Sprintf("%.2f (max %.2f)",
					float64(sum)/float64(count)/1024, float64(maxB)/1024))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// MaxBytes returns the largest plan observed for any policy.
func (r *Fig13bResult) MaxBytes() int {
	m := 0
	for _, pts := range r.Points {
		for _, pt := range pts {
			if pt.Bytes > m {
				m = pt.Bytes
			}
		}
	}
	return m
}
