package obs

import (
	"strconv"
	"time"
)

// FedStats bundles the instruments of the federation layer
// (internal/federation): per-cluster routing counters, load-snapshot
// freshness, and the per-cluster load gauges refreshed together with the
// snapshots the routers decide on. All methods are safe on a nil receiver,
// so the federation carries a FedStats pointer unconditionally and
// uninstrumented runs pay one nil check per routing decision.
type FedStats struct {
	Routed []*Counter `metric:"woha_fed_routed_total" labels:"cluster" help:"Workflows routed to this member cluster."`
	// SnapshotAge observes, per routing decision, how stale (in simulated
	// seconds) the load snapshots the router saw were — 0 when the
	// staleness interval is 0 and every decision refreshes first.
	SnapshotAge       *Histogram `metric:"woha_fed_snapshot_age_seconds" labels:"router" buckets:"duration" help:"Simulated staleness of the load snapshots a routing decision saw."`
	SnapshotRefreshes *Counter   `metric:"woha_fed_snapshot_refreshes_total" labels:"router" help:"Load-snapshot refreshes across all member clusters."`
	Clusters          *Gauge     `metric:"woha_fed_clusters" help:"Member clusters in the federation."`
	// Active, Backlog, and FreeSlots mirror each cluster's last snapshot:
	// live workflows, owed slot-time in seconds, and idle slots.
	Active    []*Gauge `metric:"woha_fed_cluster_active_workflows" labels:"cluster" help:"Live workflows on this member cluster at its last load snapshot."`
	Backlog   []*Gauge `metric:"woha_fed_cluster_backlog_seconds" labels:"cluster" help:"Owed slot-time (seconds) on this member cluster at its last load snapshot."`
	FreeSlots []*Gauge `metric:"woha_fed_cluster_free_slots" labels:"cluster" help:"Idle slots on this member cluster at its last load snapshot."`
}

// NewFedStats registers the federation instruments for n member clusters
// under the given router name. Returns nil (disabled stats) on a nil
// receiver.
func (o *Obs) NewFedStats(router string, n int) *FedStats {
	if o == nil {
		return nil
	}
	clusters := make([]string, n)
	for i := range clusters {
		clusters[i] = strconv.Itoa(i)
	}
	s := declare(o.reg, &FedStats{}, map[string][]string{"router": {router}, "cluster": clusters})
	s.Clusters.Set(int64(n))
	return s
}

// OnRoute records one routing decision: the chosen cluster and the age of
// the stalest snapshot the router saw.
func (s *FedStats) OnRoute(clusterIdx int, maxAge time.Duration) {
	if s == nil {
		return
	}
	s.Routed[clusterIdx].Inc()
	s.SnapshotAge.ObserveDuration(maxAge)
}

// OnRefresh records one cluster's load snapshot being retaken.
func (s *FedStats) OnRefresh(clusterIdx, active, freeSlots int, backlog time.Duration) {
	if s == nil {
		return
	}
	s.SnapshotRefreshes.Inc()
	s.Active[clusterIdx].Set(int64(active))
	s.Backlog[clusterIdx].Set(int64(backlog / time.Second))
	s.FreeSlots[clusterIdx].Set(int64(freeSlots))
}
