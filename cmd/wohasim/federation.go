package main

import (
	"fmt"
	"time"

	woha "repro"
	"repro/internal/experiments"
)

// runFederation executes the workload across N member clusters behind one
// shared virtual clock: each member is a full simulator configured like the
// single-cluster path's, and the chosen router assigns every workflow to a
// member at its release instant, deciding on load snapshots at most
// -snapshot-refresh old.
func runFederation(workloadName, schedName string, cfg woha.ClusterConfig, clusters int, routerName string, refresh time.Duration, ins *woha.Instrumentation, pl *woha.Planner) error {
	b, err := load(workloadName, schedName, cfg, ins, pl, nil, admissionOpts{})
	if err != nil {
		return err
	}
	res, err := experiments.RunFederation(cfg, clusters, b.spec, routerName, refresh, b.flows, b.plans, ins)
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
