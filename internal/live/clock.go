package live

import (
	"time"

	"repro/internal/simtime"
)

// virtualClock converts wall time since start into virtual (workflow) time.
// The struct is immutable once stamped; the tracker publishes it through an
// atomic pointer, so heartbeats read it without any lock.
type virtualClock struct {
	start time.Time
	scale float64
}

func (vc virtualClock) now() simtime.Time {
	return simtime.Epoch.Add(time.Duration(float64(time.Since(vc.start)) / vc.scale))
}

func (vc virtualClock) toWall(d time.Duration) time.Duration {
	w := time.Duration(float64(d) * vc.scale)
	if w <= 0 {
		w = time.Microsecond
	}
	return w
}
