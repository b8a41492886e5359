package experiments

import (
	"fmt"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/runner"
	"repro/internal/workload"
)

// AdmissionSweepConfig parameterizes the rejected-vs-missed trade-off sweep:
// the Yahoo workload run under WOHA-LPF on a shrinking sequence of cluster
// sizes — from comfortable to overloaded — once through the open front door
// (the paper's admit-everything behaviour) and once behind the feasible
// admission controller. The sweep quantifies what the front door buys: as
// the cluster shrinks, always-admit converts the shortfall into deadline
// misses spread across the whole population, while the feasible controller
// converts it into up-front rejections (each carrying a counter-offered
// feasible deadline) and keeps the miss ratio among admitted workflows low.
// Plans are made at planner.DefaultMargin; the admission controller's own
// feasibility margin stays at its default 1.0: the front door asks "can this
// fit at all", not "can it fit with slack".
type AdmissionSweepConfig struct {
	// Yahoo builds the workflow population (single-job workflows removed,
	// as in Fig 8).
	Yahoo workload.YahooConfig
	// Sizes lists the per-type slot counts, largest first; "120" means 120
	// map + 120 reduce slots.
	Sizes []int
	// Seed drives WOHA's queue PRNG.
	Seed int64
	// Workers caps concurrent cells; 0 selects one per core.
	Workers int
	// Obs optionally instruments the sweep's runner and controllers.
	Obs *obs.Obs
}

// DefaultAdmissionSweepConfig shrinks the Fig 8 cluster axis into overload:
// 200 slots per type is the paper's feasible regime, 80 is severe overload.
func DefaultAdmissionSweepConfig() AdmissionSweepConfig {
	return AdmissionSweepConfig{
		Yahoo: workload.DefaultYahooConfig(),
		Sizes: []int{200, 160, 120, 80},
		Seed:  1,
	}
}

// AdmissionSweepPoint is one cluster size's outcome pair.
type AdmissionSweepPoint struct {
	// Size is the per-type slot count.
	Size int
	// AlwaysMiss is the open-front-door deadline violation ratio (every
	// workflow admitted; the Fig 8 metric).
	AlwaysMiss float64
	// Admitted, Rejected, and CounterOffers describe the feasible
	// controller's rulings over the same population.
	Admitted, Rejected, CounterOffers int
	// AdmittedMiss is the violation ratio among admitted workflows only.
	AdmittedMiss float64
	// OverallMiss counts rejected workflows as misses too — the honest
	// submitter's-eye comparison against AlwaysMiss.
	OverallMiss float64
}

// AdmissionSweepResult holds the sweep.
type AdmissionSweepResult struct {
	Config AdmissionSweepConfig
	Points []AdmissionSweepPoint
}

// AdmissionSweep runs the trade-off sweep: two cells per cluster size
// (always-admit and feasible), fanned over cfg.Workers.
func AdmissionSweep(cfg AdmissionSweepConfig) (*AdmissionSweepResult, error) {
	flows, err := workload.Yahoo(cfg.Yahoo)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	multi := workload.MultiJob(flows)
	spec, err := SchedulerByName("WOHA-LPF")
	if err != nil {
		return nil, err
	}
	pl := sweepPlanner(nil)

	var cells []runner.Cell
	for _, size := range cfg.Sizes {
		cc := cluster.Config{
			Nodes:              size / 2,
			MapSlotsPerNode:    2,
			ReduceSlotsPerNode: 2,
			Seed:               cfg.Seed,
		}
		caps := plan.Caps{Maps: cc.MapSlots(), Reduces: cc.ReduceSlots()}
		open := ScenarioCell(fmt.Sprintf("always/%dm-%dr", size, size), cc, multi, spec, cfg.Seed, nil, pl)
		gated := ScenarioCell(fmt.Sprintf("feasible/%dm-%dr", size, size), cc, multi, spec, cfg.Seed, nil, pl)
		ins := cfg.Obs
		gated.Admission = func() admission.Controller {
			ctrl, err := admission.New(admission.Config{
				Cluster: caps,
				Mode:    admission.ModeFeasible,
				Policy:  spec.Priority,
				Obs:     ins,
			})
			if err != nil {
				// Config is static and valid by construction; a failure here
				// is a programming error, surfaced by the nil-controller
				// panic in SetAdmission's first Decide. Unreachable.
				panic(err)
			}
			return ctrl
		}
		cells = append(cells, open, gated)
	}

	results, err := runner.New(runner.Config{Workers: cfg.Workers, Obs: cfg.Obs}).RunAll(cells)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	out := &AdmissionSweepResult{Config: cfg}
	for i, size := range cfg.Sizes {
		always, feasible := results[2*i], results[2*i+1]
		pt := AdmissionSweepPoint{
			Size:         size,
			AlwaysMiss:   always.MissRatio(),
			Rejected:     feasible.Rejections(),
			Admitted:     len(feasible.Workflows) - feasible.Rejections(),
			AdmittedMiss: feasible.AdmittedMissRatio(),
			OverallMiss:  feasible.MissRatio(),
		}
		for _, w := range feasible.Workflows {
			if w.Rejected && w.CounterOffer > 0 {
				pt.CounterOffers++
			}
		}
		out.Points = append(out.Points, pt)
	}
	return out, nil
}

// Table renders the sweep in the package's figure-table format.
func (r *AdmissionSweepResult) Table() *Table {
	t := &Table{
		Title: "Admission sweep: rejected-vs-missed trade-off (Yahoo workload, WOHA-LPF)",
		Note: "always-miss admits everything (Fig 8 regime); the feasible columns gate the same population " +
			"through the admission front door",
		Header: []string{"slots", "always-miss", "admitted", "rejected", "counter-offers", "admitted-miss", "overall-miss"},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dm-%dr", p.Size, p.Size),
			fmt.Sprintf("%.3f", p.AlwaysMiss),
			fmt.Sprintf("%d", p.Admitted),
			fmt.Sprintf("%d", p.Rejected),
			fmt.Sprintf("%d", p.CounterOffers),
			fmt.Sprintf("%.3f", p.AdmittedMiss),
			fmt.Sprintf("%.3f", p.OverallMiss),
		})
	}
	return t
}
