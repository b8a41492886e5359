package workload

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/plan"
	"repro/internal/priority"
	"repro/internal/simtime"
	"repro/internal/trace"
)

func TestFig7Shape(t *testing.T) {
	w := Fig7("fig7", 1.0, 0, simtime.FromSeconds(4800))
	if err := w.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := len(w.Jobs); got != 33 {
		t.Fatalf("jobs = %d, want 33 (the paper's demo topology size)", got)
	}
	// Structure: 3 roots (ingests), one sink (publish).
	if got := len(w.Roots()); got != 3 {
		t.Errorf("roots = %d, want 3", got)
	}
	sinks := 0
	for i := range w.Jobs {
		if len(w.DependentsOf(w.Jobs[i].ID)) == 0 {
			sinks++
		}
	}
	if sinks != 1 {
		t.Errorf("sinks = %d, want 1 (publish)", sinks)
	}
	levels, err := w.Levels()
	if err != nil {
		t.Fatal(err)
	}
	maxLevel := 0
	for _, l := range levels {
		if l > maxLevel {
			maxLevel = l
		}
	}
	if maxLevel != 6 {
		t.Errorf("max level = %d, want 6 (seven stages)", maxLevel)
	}
}

func TestFig7Scale(t *testing.T) {
	small := Fig7("s", 1.0, 0, simtime.FromSeconds(4800))
	big := Fig7("b", 2.0, 0, simtime.FromSeconds(4800))
	cpS, err := small.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	cpB, err := big.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	if cpB != 2*cpS {
		t.Errorf("critical path did not scale: %v vs %v", cpS, cpB)
	}
	if small.TotalTasks() != big.TotalTasks() {
		t.Error("scale changed task counts")
	}
}

func TestYahooComposition(t *testing.T) {
	cfg := DefaultYahooConfig()
	flows, err := Yahoo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 61 {
		t.Fatalf("workflows = %d, want 61", len(flows))
	}
	jobs, singles, maxJobs := 0, 0, 0
	for _, w := range flows {
		if err := w.Validate(); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		jobs += len(w.Jobs)
		if len(w.Jobs) == 1 {
			singles++
		}
		if len(w.Jobs) > maxJobs {
			maxJobs = len(w.Jobs)
		}
		if w.Deadline <= w.Release {
			t.Fatalf("%s: deadline %v not after release %v", w.Name, w.Deadline, w.Release)
		}
		if w.Release.Duration() > cfg.ReleaseWindow {
			t.Fatalf("%s: release %v outside window %v", w.Name, w.Release, cfg.ReleaseWindow)
		}
	}
	if jobs != 180 {
		t.Errorf("total jobs = %d, want 180", jobs)
	}
	if singles != 15 {
		t.Errorf("single-job workflows = %d, want 15", singles)
	}
	if maxJobs != 12 {
		t.Errorf("largest workflow = %d jobs, want 12", maxJobs)
	}
}

func TestYahooDeterministic(t *testing.T) {
	a, err := Yahoo(DefaultYahooConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Yahoo(DefaultYahooConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Name != b[i].Name || len(a[i].Jobs) != len(b[i].Jobs) ||
			a[i].Release != b[i].Release || a[i].Deadline != b[i].Deadline {
			t.Fatalf("workflow %d differs across same-config builds", i)
		}
	}
	cfg := DefaultYahooConfig()
	cfg.Seed = 99
	c, err := Yahoo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i].Release != c[i].Release || len(a[i].Jobs) != len(c[i].Jobs) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical populations")
	}
}

func TestYahooConfigErrors(t *testing.T) {
	bad := DefaultYahooConfig()
	bad.Jobs = 10 // 61 workflows cannot hold only 10 jobs
	if _, err := Yahoo(bad); err == nil {
		t.Error("inconsistent composition accepted")
	}
	bad = DefaultYahooConfig()
	bad.MaxJobs = 1
	if _, err := Yahoo(bad); err == nil {
		t.Error("MaxJobs=1 accepted")
	}
	bad = DefaultYahooConfig()
	bad.SingleJob = 62
	if _, err := Yahoo(bad); err == nil {
		t.Error("SingleJob > Workflows accepted")
	}
}

func TestMultiJobFilter(t *testing.T) {
	flows, err := Yahoo(DefaultYahooConfig())
	if err != nil {
		t.Fatal(err)
	}
	multi := MultiJob(flows)
	if len(multi) != 61-15 {
		t.Errorf("multi-job workflows = %d, want 46", len(multi))
	}
	for _, w := range multi {
		if len(w.Jobs) < 2 {
			t.Errorf("%s has %d jobs after filter", w.Name, len(w.Jobs))
		}
	}
}

func TestAssignDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gen := trace.NewGenerator(2)
	w, err := RandomDAG(rng, gen, "w", 6, simtime.FromSeconds(50))
	if err != nil {
		t.Fatal(err)
	}
	if err := AssignDeadline(w, 100, 2.0); err != nil {
		t.Fatal(err)
	}
	p, err := plan.GenerateForPolicy(w, 100, priority.HLF{})
	if err != nil {
		t.Fatal(err)
	}
	want := w.Release.Add(2 * p.Makespan)
	if w.Deadline != want {
		t.Errorf("Deadline = %v, want %v", w.Deadline, want)
	}
}

func TestRandomDAGErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gen := trace.NewGenerator(2)
	if _, err := RandomDAG(rng, gen, "w", 0, 0); err == nil {
		t.Error("size 0 accepted")
	}
}

func TestRandomDAGConnectivity(t *testing.T) {
	// Non-root jobs should usually have parents; roots must exist.
	rng := rand.New(rand.NewSource(5))
	gen := trace.NewGenerator(6)
	withParents, total := 0, 0
	for trial := 0; trial < 30; trial++ {
		w, err := RandomDAG(rng, gen, "w", 10, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(w.Roots()) == 0 {
			t.Fatal("no roots")
		}
		for i := 1; i < len(w.Jobs); i++ {
			total++
			if len(w.Jobs[i].Prereqs) > 0 {
				withParents++
			}
		}
	}
	if frac := float64(withParents) / float64(total); frac < 0.7 {
		t.Errorf("fraction of non-root jobs with parents = %.2f, want >= 0.7", frac)
	}
}

func TestFig7SoloFeasibleOnPaperCluster(t *testing.T) {
	// The Fig 11 experiment gives the first workflow an 80-minute relative
	// deadline on 96 slots (64 map + 32 reduce). A Fig 7 workflow running
	// alone must fit comfortably, or the experiment is vacuous.
	w := Fig7("solo", 1.0, 0, simtime.Epoch.Add(80*time.Minute))
	full, err := plan.GenerateForPolicy(w, 96, priority.LPF{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Makespan > 45*time.Minute {
		t.Errorf("solo best-effort makespan %v, want <= 45m to leave contention headroom", full.Makespan)
	}
	if full.Makespan < 15*time.Minute {
		t.Errorf("solo makespan %v suspiciously small; contention would never matter", full.Makespan)
	}
	// The capped plan must be feasible, with a strictly smaller cap whose
	// makespan still fits inside the 80-minute deadline.
	capped, err := plan.GenerateCapped(w, 96, priority.LPF{})
	if err != nil {
		t.Fatal(err)
	}
	if !capped.Feasible {
		t.Fatalf("capped plan infeasible: makespan %v", capped.Makespan)
	}
	if capped.Cap >= 96 {
		t.Errorf("capped plan cap = %d, want < 96", capped.Cap)
	}
	if capped.Makespan > 80*time.Minute {
		t.Errorf("capped makespan %v exceeds the deadline", capped.Makespan)
	}
}

func TestSLASchemeCohorts(t *testing.T) {
	flows, err := Yahoo(DefaultYahooConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Two deadline classes among multi-job workflows, 3x apart; single-job
	// workflows always take the loose deadline.
	deadlines := map[simtime.Time]int{}
	for _, w := range flows {
		deadlines[w.Deadline]++
	}
	if len(deadlines) != 2 {
		t.Fatalf("distinct deadlines = %d, want 2 (tight + loose)", len(deadlines))
	}
	var tight, loose simtime.Time
	for d := range deadlines {
		if tight == 0 || d < tight {
			tight = d
		}
		if d > loose {
			loose = d
		}
	}
	if loose != simtime.Time(3*int64(tight)) {
		t.Errorf("loose %v != 3x tight %v", loose, tight)
	}
	for _, w := range flows {
		if len(w.Jobs) == 1 && w.Deadline != loose {
			t.Errorf("single-job %s in the tight cohort", w.Name)
		}
	}
	// Every tight-cohort workflow is individually feasible on the
	// reference cluster (the SLA exemption rule).
	cfg := DefaultYahooConfig()
	for _, w := range flows {
		if w.Deadline != tight {
			continue
		}
		p, err := plan.GenerateForPolicy(w, cfg.ReferenceSlots, priority.HLF{})
		if err != nil {
			t.Fatal(err)
		}
		if w.Release.Add(p.Makespan) > w.Deadline {
			t.Errorf("%s structurally infeasible yet in the tight cohort", w.Name)
		}
	}
}

func TestSLASchemeErrors(t *testing.T) {
	bad := DefaultYahooConfig()
	bad.TightAlpha = 0
	if _, err := Yahoo(bad); err == nil {
		t.Error("TightAlpha 0 accepted")
	}
	bad = DefaultYahooConfig()
	bad.LooseFactor = 0.5
	if _, err := Yahoo(bad); err == nil {
		t.Error("LooseFactor < 1 accepted")
	}
	bad = DefaultYahooConfig()
	bad.Scheme = DeadlineScheme(99)
	if _, err := Yahoo(bad); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestStretchSchemeStillSupported(t *testing.T) {
	cfg := DefaultYahooConfig()
	cfg.Scheme = DeadlineStretch
	flows, err := Yahoo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[simtime.Time]bool{}
	for _, w := range flows {
		if w.Deadline <= w.Release {
			t.Fatalf("%s: deadline before release", w.Name)
		}
		if rel := w.RelativeDeadline(); rel < cfg.DeadlineFloor {
			t.Errorf("%s: relative deadline %v below floor", w.Name, rel)
		}
		distinct[w.Deadline] = true
	}
	if len(distinct) < 20 {
		t.Errorf("stretch scheme produced only %d distinct deadlines", len(distinct))
	}
}
