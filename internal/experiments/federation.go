package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/federation"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/workflow"
	"repro/internal/workload"
)

// FederationSweepConfig parameterizes the miss-rate-vs-staleness sweep: the
// Yahoo workload routed across N member clusters by one router policy, once
// per snapshot-staleness bound. At staleness 0 the router sees every member's
// true load at each decision; as the bound grows it acts on increasingly
// out-of-date views, routes into backlogs it cannot see, and the deadline
// miss rate climbs — the sweep quantifies how much observability the routing
// layer actually needs.
type FederationSweepConfig struct {
	// Yahoo builds the workflow population (single-job workflows removed, as
	// in Fig 8).
	Yahoo workload.YahooConfig
	// Clusters is the number of member clusters.
	Clusters int
	// Size is the per-type slot count of each member; the federation's total
	// capacity is Clusters*Size per pool.
	Size int
	// Scheduler is the member policy's paper label (default WOHA-LPF).
	Scheduler string
	// Router names the routing policy (see federation.RouterNames).
	Router string
	// Staleness lists the snapshot-refresh bounds to sweep, ascending.
	Staleness []time.Duration
	// Seed drives WOHA's queue PRNG and the member clusters' noise.
	Seed int64
	// Obs optionally instruments the member runs and routers.
	Obs *obs.Obs
}

// DefaultFederationSweepConfig routes the Fig 8 population over four members
// whose combined capacity sits just below the comfortable single-cluster
// regime, so routing quality — not raw capacity — decides the miss rate.
func DefaultFederationSweepConfig() FederationSweepConfig {
	return FederationSweepConfig{
		Yahoo:     workload.DefaultYahooConfig(),
		Clusters:  4,
		Size:      40,
		Scheduler: "WOHA-LPF",
		Router:    federation.RouterSlack,
		Staleness: []time.Duration{0, 30 * time.Second, 2 * time.Minute, 10 * time.Minute, 30 * time.Minute},
		Seed:      1,
	}
}

// FederationSweepPoint is one staleness bound's outcome.
type FederationSweepPoint struct {
	// Staleness is the snapshot-refresh bound.
	Staleness time.Duration
	// Misses and MissRatio are the deadline violations over the whole routed
	// population.
	Misses    int
	MissRatio float64
	// Routed counts workflows per member cluster.
	Routed []int
	// MaxSnapshotAge is the stalest view any routing decision acted on.
	MaxSnapshotAge time.Duration
}

// FederationSweepResult holds the sweep.
type FederationSweepResult struct {
	Config FederationSweepConfig
	Points []FederationSweepPoint
}

// FederationSweep runs the staleness sweep: one federation run per bound,
// identical members, workload, and router throughout.
func FederationSweep(cfg FederationSweepConfig) (*FederationSweepResult, error) {
	if cfg.Clusters < 1 {
		return nil, fmt.Errorf("experiments: federation sweep needs >= 1 cluster, got %d", cfg.Clusters)
	}
	flows, err := workload.Yahoo(cfg.Yahoo)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	multi := workload.MultiJob(flows)
	spec, err := SchedulerByName(cfg.Scheduler)
	if err != nil {
		return nil, err
	}
	cc := cluster.Config{
		Nodes:              cfg.Size / 2,
		MapSlotsPerNode:    2,
		ReduceSlotsPerNode: 2,
		Seed:               cfg.Seed,
	}
	plans, err := spec.Plans(sweepPlanner(nil), multi, plan.Caps{Maps: cc.MapSlots(), Reduces: cc.ReduceSlots()}, cfg.Obs)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}

	out := &FederationSweepResult{Config: cfg}
	for _, staleness := range cfg.Staleness {
		res, err := RunFederation(cc, cfg.Clusters, spec, cfg.Router, staleness, multi, plans, cfg.Obs)
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		pt := FederationSweepPoint{
			Staleness: staleness,
			Misses:    res.DeadlineMisses(),
			MissRatio: res.MissRatio(),
			Routed:    res.RoutedPerCluster(),
		}
		for _, rt := range res.Routes {
			if rt.SnapshotAge > pt.MaxSnapshotAge {
				pt.MaxSnapshotAge = rt.SnapshotAge
			}
		}
		out.Points = append(out.Points, pt)
	}
	return out, nil
}

// RunFederation routes flows over clusters identical members, each
// configured by cc and running spec seeded with cc.Seed: the named router
// places every workflow on a member at its release, deciding on load
// snapshots at most refresh old. plans are index-aligned with flows and are
// nil for the baselines. o, which may be nil, instruments the members, their
// policies and the router.
func RunFederation(cc cluster.Config, clusters int, spec SchedulerSpec, router string, refresh time.Duration, flows []*workflow.Workflow, plans []*plan.Plan, o *obs.Obs) (*federation.Result, error) {
	r, err := federation.NewRouter(router)
	if err != nil {
		return nil, err
	}
	sims := make([]*cluster.Simulator, clusters)
	for i := range sims {
		if sims[i], err = cluster.New(cc, cluster.InstrumentPolicy(spec.New(cc.Seed, o), o), nil); err != nil {
			return nil, fmt.Errorf("member %d: %w", i, err)
		}
		defer sims[i].Release()
		sims[i].SetInstrumentation(o)
	}
	fed, err := federation.New(federation.Config{Router: r, SnapshotRefresh: refresh, Obs: o}, sims)
	if err != nil {
		return nil, err
	}
	for i, w := range flows {
		var p *plan.Plan
		if plans != nil {
			p = plans[i]
		}
		if err := fed.Submit(w, p); err != nil {
			return nil, err
		}
	}
	return fed.Run()
}

// Table renders the sweep in the package's figure-table format.
func (r *FederationSweepResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Federation sweep: miss rate vs snapshot staleness (%d clusters x %d slots, %s router, %s)",
			r.Config.Clusters, r.Config.Size, r.Config.Router, r.Config.Scheduler),
		Note: "each row routes the Yahoo population with load snapshots allowed to go the given duration stale " +
			"before the router must retake them",
		Header: []string{"staleness", "misses", "miss-ratio", "max-snapshot-age", "routed-per-cluster"},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			p.Staleness.String(),
			fmt.Sprintf("%d", p.Misses),
			fmt.Sprintf("%.3f", p.MissRatio),
			p.MaxSnapshotAge.String(),
			fmt.Sprintf("%v", p.Routed),
		})
	}
	return t
}
