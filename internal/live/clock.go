package live

import (
	"sync/atomic"
	"time"

	"repro/internal/simtime"
)

// virtualClock converts wall time since start into virtual (workflow) time.
// The struct is immutable once stamped; the tracker publishes it through an
// atomic pointer, so heartbeats read it without any lock.
type virtualClock struct {
	start time.Time
	scale float64
	// step, when set, is the virtual instant itself and now returns it
	// unchanged: the stepped clock the tests install (export_test.go) to
	// deliver heartbeats at the instants a simulator fires them.
	step *atomic.Int64
}

// now returns the virtual instant, counted from simtime.Epoch (zero). It is
// inlined into every heartbeat that reads it: keep it within the compiler's
// inlining budget (go build -gcflags=-m).
func (vc *virtualClock) now() simtime.Time {
	if vc.step != nil {
		return simtime.Time(vc.step.Load())
	}
	return simtime.Time(time.Duration(float64(time.Since(vc.start)) / vc.scale))
}

func (vc *virtualClock) toWall(d time.Duration) time.Duration {
	w := time.Duration(float64(d) * vc.scale)
	if w <= 0 {
		w = time.Microsecond
	}
	return w
}
