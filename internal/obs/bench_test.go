// Benchmarks live in an external test package so they can drive the real
// live JobTracker heartbeat path without an import cycle (live imports obs).
package obs_test

import (
	"testing"
	"time"

	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/scheduler"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// benchCluster builds a live cluster with one registered workflow so each
// heartbeat exercises the full scheduling path (release scan, assignment
// attempt). ins may be nil — the disabled-instrumentation case under test.
// shards is passed through as Config.Shards, which the tracker accepts and
// ignores.
func benchCluster(tb testing.TB, ins *obs.Obs, shards int) *live.Cluster {
	tb.Helper()
	cfg := live.Config{
		Nodes:              4,
		MapSlotsPerNode:    2,
		ReduceSlotsPerNode: 1,
		HeartbeatInterval:  time.Millisecond,
		TimeScale:          0.001,
		Shards:             shards,
		Obs:                ins,
	}
	c, err := live.New(cfg, scheduler.NewFIFO())
	if err != nil {
		tb.Fatal(err)
	}
	w := workflow.NewBuilder("bench").
		Job("a", 6, 2, 10*time.Second, 20*time.Second).
		MustBuild(simtime.Epoch, simtime.Epoch.Add(time.Hour))
	if err := c.Submit(w, nil); err != nil {
		tb.Fatal(err)
	}
	return c
}

// steadyState drives one heartbeat that releases the workflow and drains the
// assignable tasks, so the measured loop sees the steady no-free-slot path
// rather than one-time setup work.
func steadyState(c *live.Cluster) {
	c.DeliverHeartbeat(live.Heartbeat{Tracker: 0, FreeMaps: 8, FreeReds: 4})
}

// BenchmarkHeartbeatBare measures the heartbeat path with instrumentation
// disabled (nil *obs.Obs). The contract is 0 allocs/op: a disabled
// installation costs exactly the nil checks.
func BenchmarkHeartbeatBare(b *testing.B) {
	c := benchCluster(b, nil, 0)
	steadyState(c)
	hb := live.Heartbeat{Tracker: 0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.DeliverHeartbeat(hb)
	}
}

// BenchmarkHeartbeatInstrumented is the same path with a live registry and
// ring sink attached, quantifying the enabled-instrumentation overhead.
func BenchmarkHeartbeatInstrumented(b *testing.B) {
	ins := obs.New(obs.NewRegistry(), obs.NewRing(4096))
	c := benchCluster(b, ins, 0)
	steadyState(c)
	hb := live.Heartbeat{Tracker: 0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.DeliverHeartbeat(hb)
	}
}

// TestHeartbeatBareAllocs pins the zero-allocation contract in the regular
// test suite, so a regression fails go test, not only a benchmark reading.
// The heartbeat path must stay allocation-free on a steady busy heartbeat
// whatever Config.Shards says: the field is accepted and ignored.
func TestHeartbeatBareAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
	}{{"shards1", 1}, {"shards4", 4}} {
		t.Run(tc.name, func(t *testing.T) {
			c := benchCluster(t, nil, tc.shards)
			steadyState(c)
			hb := live.Heartbeat{Tracker: 0}
			if allocs := testing.AllocsPerRun(100, func() { c.DeliverHeartbeat(hb) }); allocs != 0 {
				t.Errorf("bare heartbeat allocates %v objects per run, want 0", allocs)
			}
		})
	}
}
