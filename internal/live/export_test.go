package live

import (
	"repro/internal/cluster"
	"repro/internal/obs"
)

// NewReference builds an in-process cluster exactly as New does, except that
// its control plane is the single-mutex referee (reference_test.go) instead
// of the master. Tests compare the master against it.
func NewReference(cfg Config, pol cluster.Policy) (*Cluster, error) {
	referee := func(cfg Config, pol cluster.Policy) controlPlane { return newJobTracker(cfg, pol) }
	return newCluster(cfg, pol, referee, false)
}

// LiveStats returns the master's instrument bundle, so tests read its series
// through the typed handles it writes.
func (c *Cluster) LiveStats() *obs.LiveStats { return c.jt.(*master).stats }
