package experiments

// Differential coverage for heartbeat-mode sleeping (cluster/sim.go, "Sleeping"):
// the reference simulator executes every tick, so a Result that is DeepEqual
// to its own — SimulatedEvents included — proves that every tick the live
// core counted without running was one the reference ran and found idle, and
// that every tick it did run sat where the reference had it within its
// instant.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/planner"
	"repro/internal/priority"
	"repro/internal/runner"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// quiescentScenario draws one small heartbeat-mode scenario. Everything that
// decides when a sleeper must wake, or where its tick falls within an instant,
// is drawn: the node count (one node means every event lands on the only
// grid there is; seventy put the node sets' scans across a word boundary),
// durations that are whole multiples of the interval (ties on
// a node's own grid; with three nodes and a 3 s interval every phase is a
// whole second too), a submitter delay equal to the interval, speculation
// with stragglers, failures that split speculative pairs.
// Every failure recovers and every node has both slot types, so the run can
// always finish: the reference, unlike the live core, ticks for ever on a
// stuck run.
func quiescentScenario(rng *rand.Rand) (cluster.Config, []*workflow.Workflow) {
	iv := []time.Duration{time.Second, 3 * time.Second, 4 * time.Second}[rng.Intn(3)]
	cc := cluster.Config{
		Nodes:              []int{1, 3, 10, 10, 3, 1, 70}[rng.Intn(7)],
		MapSlotsPerNode:    1 + rng.Intn(2),
		ReduceSlotsPerNode: 1 + rng.Intn(2),
		HeartbeatInterval:  iv,
		Seed:               rng.Int63(),
	}
	switch rng.Intn(3) {
	case 0:
		cc.SubmitterOverhead = iv
	case 1:
		cc.SubmitterOverhead = 2 * time.Second
	}
	onGrid := rng.Intn(2) == 0 // noise-free, every duration k × interval
	if !onGrid {
		cc.Noise = 0.2
	}
	if rng.Intn(2) == 0 {
		cc.SpeculativeSlowdown = 1.5
		cc.StragglerProb = 0.15
		cc.StragglerFactor = 3
	}
	span := 40 * iv
	for f := rng.Intn(4); f > 0; f-- {
		at := time.Duration(rng.Int63n(int64(span)))
		if onGrid || rng.Intn(2) == 0 {
			at = at / time.Second * time.Second
		}
		cc.Failures = append(cc.Failures, cluster.Failure{
			Node:     rng.Intn(cc.Nodes),
			At:       simtime.Epoch.Add(at),
			Downtime: time.Duration(1+rng.Intn(10)) * iv,
		})
	}
	unit := time.Second
	if onGrid {
		unit = iv
	}
	flows := make([]*workflow.Workflow, 1+rng.Intn(4))
	for i := range flows {
		b := workflow.NewBuilder(fmt.Sprintf("w%d", i))
		names := make([]string, 1+rng.Intn(5))
		for j := range names {
			names[j] = fmt.Sprintf("j%d", j)
			var after []string
			for k := 0; k < j; k++ {
				if rng.Intn(3) == 0 {
					after = append(after, names[k])
				}
			}
			maps, reduces := rng.Intn(7)*(1+cc.Nodes/20), rng.Intn(4)
			if maps+reduces == 0 {
				maps = 1
			}
			b.Job(names[j], maps, reduces,
				time.Duration(1+rng.Intn(6))*unit, time.Duration(1+rng.Intn(8))*unit, after...)
		}
		release := time.Duration(rng.Int63n(int64(span)))
		if onGrid || rng.Intn(2) == 0 {
			release = release / time.Second * time.Second
		}
		rel := simtime.Epoch.Add(release)
		flows[i] = b.MustBuild(rel, rel.Add(time.Duration(1+rng.Intn(200))*iv))
	}
	return cc, flows
}

func TestQuiescentTicksMatchReference(t *testing.T) {
	scenarios := 150
	if testing.Short() {
		scenarios = 40
	}
	for seed := int64(1); seed <= int64(scenarios); seed++ {
		cc, flows := quiescentScenario(rand.New(rand.NewSource(seed)))
		for _, spec := range AllSchedulers() {
			name := fmt.Sprintf("seed%d/%s", seed, spec.Name)
			cell := ScenarioCell(name, cc, flows, spec, seed, nil, planner.New(planner.Config{}))
			assertCellParity(t, &cell)
		}
	}
}

// wohaVariants are the WOHA options that ship besides the defaults, each
// run under WOHA-LPF: the two priority-formula variants of the Yahoo
// ablation and the two queue backends Fig 13(a) compares with the DSL.
var wohaVariants = []struct {
	name string
	opts core.Options
}{
	{"serve-overdue-first", core.Options{ServeOverdueFirst: true}},
	{"normalized-lag", core.Options{NormalizedLag: true}},
	{"queue-bst", core.Options{Queue: core.QueueBST}},
	{"queue-naive", core.Options{Queue: core.QueueNaive}},
}

// wohaVariantCell is ScenarioCell for WOHA-LPF with opts in place of the
// default options.
func wohaVariantCell(name string, cc cluster.Config, flows []*workflow.Workflow, seed int64, opts core.Options) runner.Cell {
	cell := ScenarioCell(name, cc, flows,
		SchedulerSpec{Name: "WOHA-LPF", Priority: priority.LPF{}}, seed, nil, planner.New(planner.Config{}))
	opts.Seed, opts.PolicyName = seed, "LPF"
	cell.Policy = func() cluster.Policy { return core.NewScheduler(opts) }
	return cell
}

// TestWOHAOptionsQuiescentTicksMatchReference runs the same scenarios under
// each of wohaVariants: whatever the priority formula or queue backend, the
// sleeping core must reproduce the reference that executes every tick.
func TestWOHAOptionsQuiescentTicksMatchReference(t *testing.T) {
	scenarios := 150
	if testing.Short() {
		scenarios = 40
	}
	for seed := int64(1); seed <= int64(scenarios); seed++ {
		cc, flows := quiescentScenario(rand.New(rand.NewSource(seed)))
		for _, v := range wohaVariants {
			cell := wohaVariantCell(fmt.Sprintf("seed%d/%s", seed, v.name), cc, flows, seed, v.opts)
			assertCellParity(t, &cell)
		}
	}
}
