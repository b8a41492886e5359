package main

import (
	"fmt"
	"time"

	woha "repro"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/federation"
	"repro/internal/plan"
)

// runFederation executes the workload across N member clusters behind one
// shared virtual clock: each member is a full simulator configured like the
// single-cluster path's, and the chosen router assigns every workflow to a
// member at its release instant, deciding on load snapshots at most
// -snapshot-refresh old.
func runFederation(workloadName, schedName string, cfg woha.ClusterConfig, clusters int, routerName string, refresh time.Duration, ins *woha.Instrumentation, pl *woha.Planner) error {
	flows, err := buildWorkload(workloadName)
	if err != nil {
		return err
	}
	spec, err := experiments.SchedulerByName(schedName)
	if err != nil {
		return err
	}
	router, err := federation.NewRouter(routerName)
	if err != nil {
		return err
	}
	sims := make([]*cluster.Simulator, clusters)
	for i := range sims {
		if sims[i], err = cluster.New(cfg, spec.New(cfg.Seed), nil); err != nil {
			return err
		}
		sims[i].SetInstrumentation(ins)
		defer sims[i].Release()
	}
	fed, err := federation.New(federation.Config{
		Router:          router,
		SnapshotRefresh: refresh,
		Obs:             ins,
	}, sims)
	if err != nil {
		return err
	}
	var plans []*plan.Plan
	if spec.IsWOHA() {
		// Plans are capped at one member's capacity: that is the cluster the
		// workflow will actually run on, whichever the router picks.
		if plans, err = pl.PlanAll(flows, plan.Caps{Maps: cfg.MapSlots(), Reduces: cfg.ReduceSlots()}, spec.Priority); err != nil {
			return err
		}
	}
	for i, w := range flows {
		var p *plan.Plan
		if plans != nil {
			p = plans[i]
		}
		if err := fed.Submit(w, p); err != nil {
			return err
		}
	}
	res, err := fed.Run()
	if err != nil {
		return err
	}

	fmt.Printf("federated %s over %d clusters x %d nodes (%d map + %d reduce slots each), router %s, snapshot refresh %v\n",
		schedName, clusters, cfg.Nodes, cfg.MapSlots(), cfg.ReduceSlots(), res.Router, res.SnapshotRefresh)
	fmt.Printf("%-12s %8s %10s %10s %10s %14s  %s\n",
		"workflow", "cluster", "release", "deadline", "finish", "snapshot-age", "met")
	for i, w := range res.Workflows {
		rt := res.Routes[i]
		fmt.Printf("%-12s %8d %9.0fs %9.0fs %9.0fs %14v  %s\n",
			w.Name, rt.Cluster, w.Release.Seconds(), w.Deadline.Seconds(), w.Finish.Seconds(),
			rt.SnapshotAge.Round(time.Millisecond), outcomeLabel(w, "yes"))
	}
	var maxAge time.Duration
	for _, rt := range res.Routes {
		if rt.SnapshotAge > maxAge {
			maxAge = rt.SnapshotAge
		}
	}
	fmt.Printf("routed per cluster %v, misses %d/%d (%.1f%%), max snapshot age %v\n",
		res.RoutedPerCluster(), res.DeadlineMisses(), len(res.Workflows), 100*res.MissRatio(),
		maxAge.Round(time.Millisecond))
	for i, cr := range res.Clusters {
		fmt.Printf("  cluster %d: %d workflows, %d tasks, makespan %v, utilization %.3f\n",
			i, len(cr.Workflows), cr.TasksStarted, cr.Makespan.Duration().Round(time.Second), cr.Utilization())
	}
	return nil
}
