package live

import "repro/internal/cluster"

// NewReference builds an in-process cluster exactly as New does, except that
// its control plane is the single-mutex referee (reference_test.go) instead
// of the sharded tracker; Config.Shards is ignored. Tests compare the sharded
// tracker at each shard count against it.
func NewReference(cfg Config, pol cluster.Policy) (*Cluster, error) {
	referee := func(cfg Config, pol cluster.Policy) controlPlane { return newJobTracker(cfg, pol) }
	return newCluster(cfg, pol, referee, false)
}
