package live_test

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/priority"
)

// TestTCPHeartbeatInstrumentation runs a workflow over the real net/rpc TCP
// transport with instrumentation attached and checks that the heartbeat
// latency histogram fills and that exactly one HeartbeatServed record exists
// per served RPC (counter, histogram, and event stream all agree).
func TestTCPHeartbeatInstrumentation(t *testing.T) {
	ring := obs.NewRing(1 << 14)
	ins := obs.New(obs.NewRegistry(), ring)
	cfg := fastConfig()
	cfg.Obs = ins

	c, err := live.NewTCP(cfg, core.NewScheduler(core.Options{Seed: 3, Obs: ins}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.CloseTransport(); err != nil {
			t.Errorf("CloseTransport: %v", err)
		}
	}()
	w := chainFlow("tcp-obs", 0, 2*time.Hour)
	p, err := plan.GenerateCapped(w, 12, priority.LPF{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(w, p); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	served := ins.Heartbeats.Value()
	if served == 0 {
		t.Fatal("no heartbeats counted over the TCP transport")
	}
	if got := ins.HeartbeatDur.Count(); got != served {
		t.Errorf("latency histogram has %d samples for %d heartbeats", got, served)
	}
	if ins.HeartbeatDur.Sum() <= 0 {
		t.Error("heartbeat latency sum is zero — durations not measured")
	}
	if got := ins.HeartbeatAssignments.Count(); got != served {
		t.Errorf("assignment histogram has %d samples for %d heartbeats", got, served)
	}
	if got := ring.CountKind(obs.KindHeartbeatServed); int64(got) != served {
		t.Errorf("%d heartbeat_served events for %d heartbeats served", got, served)
	}

	if got := ins.TasksAssigned.Value(); got != int64(res.TasksStarted) {
		t.Errorf("tasks assigned counter = %d, result says %d", got, res.TasksStarted)
	}
	if ins.WorkflowsCompleted.Value() != 1 {
		t.Errorf("workflows completed = %d, want 1", ins.WorkflowsCompleted.Value())
	}
	if res.Workflows[0].Met && ins.DeadlinesMissed.Value() != 0 {
		t.Error("deadline met but miss counter incremented")
	}
}

// TestLiveValidationMessages pins the uniform "live: <field> = <value>, want
// <constraint>" error style.
func TestLiveValidationMessages(t *testing.T) {
	cases := []struct {
		mutate func(*live.Config)
		want   string
	}{
		{func(c *live.Config) { c.Nodes = 0 }, "live: Nodes = 0, want > 0"},
		{func(c *live.Config) { c.MapSlotsPerNode = -1 }, "live: MapSlotsPerNode = -1, want >= 0"},
		{func(c *live.Config) { c.ReduceSlotsPerNode = -2 }, "live: ReduceSlotsPerNode = -2, want >= 0"},
		{func(c *live.Config) { c.MapSlotsPerNode, c.ReduceSlotsPerNode = 0, 0 },
			"live: MapSlotsPerNode+ReduceSlotsPerNode = 0, want > 0"},
		{func(c *live.Config) { c.HeartbeatInterval = 0 }, "live: HeartbeatInterval = 0s, want > 0"},
		{func(c *live.Config) { c.TimeScale = -1 }, "live: TimeScale = -1, want > 0"},
		{func(c *live.Config) { c.TimeScale = math.NaN() }, "live: TimeScale = NaN, want > 0"},
		{func(c *live.Config) { c.TimeScale = math.Inf(1) }, "live: TimeScale = +Inf, want finite"},
		{func(c *live.Config) { c.Shards = -3 }, "live: Shards = -3, want >= 0"},
	}
	for _, tc := range cases {
		cfg := fastConfig()
		tc.mutate(&cfg)
		_, err := live.New(cfg, nil)
		if err == nil || err.Error() != tc.want {
			t.Errorf("error = %v, want %q", err, tc.want)
		}
	}
}
