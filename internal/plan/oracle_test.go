package plan_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/oracle"
	"repro/internal/plan"
	"repro/internal/priority"
	"repro/internal/simtime"
	"repro/internal/workflow"
	"repro/internal/workload"
)

// The oracle is the cap search this package ran before the kernel: a plain
// bisection (oracle.Bisect) in which every probe is a full
// Generate/GenerateTyped plan and the search hands back the plan of the cap
// it settles on. It is kept, test-only, as the thing the kernel-backed
// generators must agree with byte for byte.

// oracleCapped is the old body of GenerateCappedTyped and
// GenerateCappedMargin over gen, which plans one total cap.
func oracleCapped(w *workflow.Workflow, margin float64, lo, hi int, gen func(cap int) (*plan.Plan, error)) (*plan.Plan, error) {
	target := time.Duration(margin * float64(w.RelativeDeadline()))
	full, err := gen(hi)
	if err != nil {
		return nil, err
	}
	if full.Makespan > target {
		if full.Makespan > w.RelativeDeadline() {
			return full, nil
		}
		target = w.RelativeDeadline()
	}
	best, probes, err := oracle.Bisect(lo, hi, func(c int) (*plan.Plan, bool, error) {
		p, err := gen(c)
		return p, err == nil && p.Makespan <= target, err
	})
	if err != nil {
		return nil, err
	}
	if best == nil {
		best = full
	}
	best.SearchIters = 1 + probes
	return best, nil
}

// generator is one of the two capped generators with its oracle-side cap
// ladder.
type generator struct {
	name   string
	lo, hi int
	// gen plans total cap c in full; capped is the generator under test.
	gen    func(w *workflow.Workflow, pol priority.Policy, ranks []int, c int) (*plan.Plan, error)
	capped func(w *workflow.Workflow, pol priority.Policy, margin float64) (*plan.Plan, error)
	// makespan asks a bound kernel about total cap c.
	makespan func(k *plan.Kernel, c int, limit time.Duration) (time.Duration, bool, error)
}

func generators(cluster plan.Caps) []generator {
	return []generator{
		{
			name: "typed", lo: 2, hi: cluster.Total(),
			gen: func(w *workflow.Workflow, pol priority.Policy, ranks []int, c int) (*plan.Plan, error) {
				return plan.GenerateTyped(w, plan.TypedCapsFor(cluster, c), pol.Name(), ranks)
			},
			capped: func(w *workflow.Workflow, pol priority.Policy, margin float64) (*plan.Plan, error) {
				return plan.GenerateCappedTyped(w, cluster, pol, margin)
			},
			makespan: func(k *plan.Kernel, c int, limit time.Duration) (time.Duration, bool, error) {
				return k.MakespanTyped(plan.TypedCapsFor(cluster, c), limit)
			},
		},
		{
			name: "single", lo: 1, hi: cluster.Total(),
			gen: func(w *workflow.Workflow, pol priority.Policy, ranks []int, c int) (*plan.Plan, error) {
				return plan.Generate(w, c, pol.Name(), ranks)
			},
			capped: func(w *workflow.Workflow, pol priority.Policy, margin float64) (*plan.Plan, error) {
				return plan.GenerateCappedMargin(w, cluster.Total(), pol, margin)
			},
			makespan: func(k *plan.Kernel, c int, limit time.Duration) (time.Duration, bool, error) {
				return k.Makespan(c, limit)
			},
		},
	}
}

// checkAgainstOracle plans w (whose deadline the caller has set) with g at
// margin both ways and demands the same encoded plan and the same probe
// count.
func checkAgainstOracle(t testing.TB, what string, g generator, w *workflow.Workflow, pol priority.Policy, margin float64) {
	t.Helper()
	ranks, err := pol.Rank(w)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracleCapped(w, margin, g.lo, g.hi, func(c int) (*plan.Plan, error) { return g.gen(w, pol, ranks, c) })
	if err != nil {
		t.Fatalf("%s: oracle: %v", what, err)
	}
	got, err := g.capped(w, pol, margin)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !bytes.Equal(got.Encode(), want.Encode()) {
		t.Errorf("%s: plan differs from the oracle's: cap %d makespan %v feasible %v, want cap %d makespan %v feasible %v",
			what, got.Cap, got.Makespan, got.Feasible, want.Cap, want.Makespan, want.Feasible)
	}
	if got.SearchIters != want.SearchIters {
		t.Errorf("%s: SearchIters %d, oracle ran %d simulations", what, got.SearchIters, want.SearchIters)
	}
	if got.ProbesCut < 0 || got.ProbesCut >= got.SearchIters {
		t.Errorf("%s: ProbesCut %d of %d simulations (the whole-cluster run is never cut)", what, got.ProbesCut, got.SearchIters)
	}
}

// deadlines returns relative deadlines for w spanning the search's regimes,
// from infeasible on the whole cluster to feasible at the smallest cap.
func deadlines(t testing.TB, g generator, w *workflow.Workflow, pol priority.Policy) []time.Duration {
	t.Helper()
	ranks, err := pol.Rank(w)
	if err != nil {
		t.Fatal(err)
	}
	full, err := g.gen(w, pol, ranks, g.hi)
	if err != nil {
		t.Fatal(err)
	}
	least, err := g.gen(w, pol, ranks, g.lo)
	if err != nil {
		t.Fatal(err)
	}
	f, l := full.Makespan, least.Makespan
	return []time.Duration{
		f / 2,                      // infeasible on the whole cluster
		f - time.Nanosecond,        // just infeasible
		f,                          // only the whole cluster, and only at margin 1
		f + f/10,                   // the margin target misses, the real deadline does not
		f + (l-f)/3, f + 2*(l-f)/3, // somewhere up the ladder
		l,                 // feasible at the smallest cap at margin 1
		2*l + time.Second, // feasible at the smallest cap at any margin
	}
}

// checkLadder checks the kernel against the plans it replaces, one cap at a
// time: run unlimited it reports the plan's makespan, and run with limit L
// it says "within" exactly when that makespan is at most L — and when it
// says "over", what it returns is past L and no later than the makespan.
func checkLadder(t testing.TB, what string, g generator, w *workflow.Workflow, pol priority.Policy, stride int) {
	t.Helper()
	ranks, err := pol.Rank(w)
	if err != nil {
		t.Fatal(err)
	}
	k, err := plan.Bind(w, ranks)
	if err != nil {
		t.Fatal(err)
	}
	defer k.Release()
	for c := g.lo; c <= g.hi; c += stride {
		p, err := g.gen(w, pol, ranks, c)
		if err != nil {
			t.Fatal(err)
		}
		got, within, err := g.makespan(k, c, plan.Unlimited)
		if err != nil || !within || got != p.Makespan {
			t.Fatalf("%s cap %d: unlimited kernel run = (%v, %v, %v), plan makespan %v", what, c, got, within, err, p.Makespan)
		}
		for _, limit := range []time.Duration{
			0, p.Makespan / 2, p.Makespan - time.Nanosecond, p.Makespan, p.Makespan + time.Nanosecond, 2 * p.Makespan,
		} {
			got, within, err := g.makespan(k, c, limit)
			if err != nil {
				t.Fatal(err)
			}
			if within != (p.Makespan <= limit) {
				t.Fatalf("%s cap %d limit %v: within = %v, makespan is %v", what, c, limit, within, p.Makespan)
			}
			if within && got != p.Makespan {
				t.Fatalf("%s cap %d limit %v: within at %v, makespan is %v", what, c, limit, got, p.Makespan)
			}
			if !within && (got <= limit || got > p.Makespan) {
				t.Fatalf("%s cap %d limit %v: stopped at %v, want in (limit, makespan %v]", what, c, limit, got, p.Makespan)
			}
		}
	}
}

// TestCappedSearchMatchesOracle is the kernel-versus-what-it-replaces
// check over random DAGs: both generators, margins 1 and 0.85, every policy,
// deadlines across every regime of the search, and the whole cap ladder.
func TestCappedSearchMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 25; trial++ {
		w := oracle.RandomWorkflow(rng, 1+rng.Intn(30))
		cluster := plan.Caps{Maps: 1 + rng.Intn(60), Reduces: 1 + rng.Intn(30)}
		for _, g := range generators(cluster) {
			for _, pol := range priority.All() {
				what := fmt.Sprintf("trial %d %s %s cluster %+v", trial, g.name, pol.Name(), cluster)
				checkLadder(t, what, g, w, pol, 1)
				for _, d := range deadlines(t, g, w, pol) {
					w.Deadline = w.Release.Add(d)
					for _, margin := range []float64{1, 0.85} {
						checkAgainstOracle(t, fmt.Sprintf("%s deadline %v margin %v", what, d, margin), g, w, pol, margin)
					}
				}
			}
		}
	}
}

// TestCappedSearchMatchesOracleOnCorpus repeats the check over the planner's
// corpus — the Yahoo-derived population plus the Fig 7 topology — on the
// planner tests' cluster, with each workflow's own deadline as well.
func TestCappedSearchMatchesOracleOnCorpus(t *testing.T) {
	flows, err := workload.Yahoo(workload.DefaultYahooConfig())
	if err != nil {
		t.Fatal(err)
	}
	flows = append(flows, workload.Fig7("fig7", 1.0, simtime.Epoch, simtime.Epoch.Add(45*time.Minute)))
	cluster := plan.Caps{Maps: 300, Reduces: 180}
	pol := priority.HLF{}
	for _, g := range generators(cluster) {
		for i, w := range flows {
			w = w.Clone()
			what := fmt.Sprintf("%s %s", g.name, w.Name)
			if i%8 == 0 {
				checkLadder(t, what, g, w, pol, 7)
			}
			ds := append(deadlines(t, g, w, pol), w.RelativeDeadline())
			for _, d := range ds {
				w.Deadline = w.Release.Add(d)
				for _, margin := range []float64{1, 0.85} {
					checkAgainstOracle(t, fmt.Sprintf("%s deadline %v margin %v", what, d, margin), g, w, pol, margin)
				}
			}
		}
	}
}

// FuzzCappedSearch drives both capped generators against the oracle from a
// seeded DAG shape, cluster caps, margin and deadline stretch.
func FuzzCappedSearch(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(12), uint8(6), uint8(85), uint16(150))
	f.Add(int64(2), uint8(30), uint8(60), uint8(30), uint8(100), uint16(100))
	f.Add(int64(3), uint8(1), uint8(1), uint8(1), uint8(50), uint16(40))     // infeasible everywhere
	f.Add(int64(4), uint8(18), uint8(3), uint8(40), uint8(85), uint16(1000)) // feasible at cap 2
	f.Add(int64(5), uint8(12), uint8(200), uint8(2), uint8(1), uint16(300))  // margin target unreachable
	f.Fuzz(func(t *testing.T, seed int64, jobs, maps, reduces, marginPct uint8, stretchPct uint16) {
		rng := rand.New(rand.NewSource(seed))
		w := oracle.RandomWorkflow(rng, 1+int(jobs)%40)
		cluster := plan.Caps{Maps: 1 + int(maps)%96, Reduces: 1 + int(reduces)%48}
		margin := float64(1+int(marginPct)%100) / 100
		pol := priority.All()[int(seed&0x7fffffff)%len(priority.All())]
		for _, g := range generators(cluster) {
			ranks, err := pol.Rank(w)
			if err != nil {
				t.Fatal(err)
			}
			full, err := g.gen(w, pol, ranks, g.hi)
			if err != nil {
				t.Fatal(err)
			}
			// Stretch 0.10x to 20x of the whole-cluster makespan.
			d := time.Duration(float64(full.Makespan) * float64(10+int(stretchPct)%1991) / 100)
			w.Deadline = w.Release.Add(d)
			checkAgainstOracle(t, fmt.Sprintf("%s seed %d cluster %+v deadline %v margin %v", g.name, seed, cluster, d, margin), g, w, pol, margin)
		}
	})
}
