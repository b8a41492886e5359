package live

import (
	"sync/atomic"

	"repro/internal/obs"
)

// StepClock makes c's virtual clock a stepped one and returns its instant:
// from the first heartbeat on, c reads the virtual time as the value stored
// there, in nanoseconds since simtime.Epoch, and never the wall clock. Call
// it before the first heartbeat.
func (c *Cluster) StepClock() *atomic.Int64 {
	c.jt.step = new(atomic.Int64)
	return c.jt.step
}

// LiveStats returns the master's instrument bundle, so tests read its series
// through the typed handles it writes.
func (c *Cluster) LiveStats() *obs.LiveStats { return c.jt.stats }
