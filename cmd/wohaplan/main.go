// Command wohaplan plays the WOHA client's Scheduling Plan Generator: it
// reads one or more workflow XML configurations, generates each
// resource-capped scheduling plan, and prints the job ordering and progress
// requirement list (plus the encoded plan size the master node would store).
//
// Plans are produced through the planner service (internal/planner), so a
// batch of files can be planned several at once (-parallel) and reuse plans
// across structurally identical workflows (-cache); both paths emit
// byte-identical plans to the sequential generator. Files are printed in
// argument order.
//
// Example:
//
//	wohaplan -map-slots 200 -reduce-slots 200 -policy LPF pipeline.xml
//	wohaplan -parallel 0 -cache 128 batch/*.xml
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	woha "repro"
	"repro/internal/plan"
	"repro/internal/planner"
)

func main() {
	var (
		mapSlots    = flag.Int("map-slots", 200, "cluster map slots")
		reduceSlots = flag.Int("reduce-slots", 200, "cluster reduce slots")
		policyName  = flag.String("policy", "LPF", "intra-workflow job priority: HLF, LPF, or MPF")
		margin      = flag.Float64("margin", planner.DefaultMargin, "plan safety margin in (0,1]")
		parallel    = flag.Int("parallel", 1, "plan up to N workflows at once (0 = one per core)")
		cacheSize   = flag.Int("cache", 0, "structural plan cache capacity (0 = disabled)")
	)
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: wohaplan [flags] workflow.xml [more.xml ...]")
		os.Exit(2)
	}
	if err := run(flag.Args(), *policyName, *mapSlots, *reduceSlots, *margin, *parallel, *cacheSize); err != nil {
		fmt.Fprintln(os.Stderr, "wohaplan:", err)
		os.Exit(1)
	}
}

func run(paths []string, policyName string, mapSlots, reduceSlots int, margin float64, parallel, cacheSize int) error {
	pol, err := woha.PriorityByName(policyName)
	if err != nil {
		return err
	}
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	pl := planner.New(planner.Config{Workers: parallel, CacheSize: cacheSize, Margin: margin})
	caps := plan.Caps{Maps: mapSlots, Reduces: reduceSlots}
	if caps.Maps <= 0 || caps.Reduces <= 0 {
		return fmt.Errorf("bad slot counts %d map / %d reduce", mapSlots, reduceSlots)
	}
	if margin <= 0 || margin > 1 {
		return fmt.Errorf("margin %v outside (0, 1]", margin)
	}

	flows := make([]*woha.Workflow, len(paths))
	for i, path := range paths {
		if flows[i], err = readWorkflow(path); err != nil {
			return err
		}
	}
	plans, err := pl.PlanAll(flows, caps, pol)
	if err != nil {
		return err
	}
	for i, w := range flows {
		if i > 0 {
			fmt.Println()
		}
		printPlan(w, plans[i])
	}
	return nil
}

func readWorkflow(path string) (*woha.Workflow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return woha.ParseWorkflowXML(f)
}

func printPlan(w *woha.Workflow, p *plan.Plan) {
	fmt.Printf("workflow %q: %d jobs, %d tasks, relative deadline %v\n",
		w.Name, len(w.Jobs), w.TotalTasks(), w.RelativeDeadline())
	source := fmt.Sprintf("%d probes, %d simulated", p.SearchIters, p.Simulations)
	if p.SearchIters == 0 {
		source = "shared plan, not simulated"
	}
	fmt.Printf("plan: policy %s, resource cap %d slots, simulated makespan %v, feasible %v, encoded %d bytes (%s)\n\n",
		p.Policy, p.Cap, p.Makespan.Round(time.Second), p.Feasible, p.Size(), source)

	fmt.Println("job ordering (highest priority first):")
	order := make([]int, len(p.Ranks))
	for j, r := range p.Ranks {
		order[r] = j
	}
	for r, j := range order {
		fmt.Printf("  %2d. %s\n", r+1, w.Jobs[j].Name)
	}

	fmt.Println("\nprogress requirements (by ttd time before the deadline, req tasks must be scheduled):")
	reqs := append([]woha.PlanReq(nil), p.Reqs...)
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].TTD > reqs[j].TTD })
	for _, r := range reqs {
		fmt.Printf("  ttd %10v -> %4d tasks\n", r.TTD.Round(time.Second), r.Cum)
	}
}
