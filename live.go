package woha

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/live"
	"repro/internal/plan"
)

// LiveConfig configures the concurrent mini-Hadoop (see internal/live): the
// same schedulers running against goroutine TaskTrackers that report over
// real heartbeat messages instead of discrete events.
type LiveConfig = live.Config

// LiveResult is the outcome of a live run.
type LiveResult = live.Result

// LiveSession wires the live cluster to a scheduler, mirroring Session.
type LiveSession struct {
	cfg     ClusterConfig
	spec    experiments.SchedulerSpec
	planner *Planner
	cluster *live.Cluster
	ins     *Instrumentation
}

// NewLiveSession creates a live session. Set UseTCP to route heartbeats over
// a real TCP loopback connection via net/rpc. It takes the Session options,
// which are the one source of the live tracker's front door (WithAdmission)
// and instrumentation (WithInstrumentation): a cfg with Admission or Obs
// already set is refused. WithPlanner shapes Submit's plans as it does
// Session's. WithObserver is refused; the live cluster reports through
// WithInstrumentation.
func NewLiveSession(cfg LiveConfig, sched Scheduler, useTCP bool, opts ...SessionOption) (*LiveSession, error) {
	o := applyOptions(opts)
	if o.observer != nil {
		return nil, fmt.Errorf("woha: NewLiveSession does not accept WithObserver; use WithInstrumentation")
	}
	if cfg.Admission != nil || cfg.Obs != nil {
		return nil, fmt.Errorf("woha: NewLiveSession takes the front door from WithAdmission and instrumentation from WithInstrumentation; leave LiveConfig.Admission and LiveConfig.Obs unset")
	}
	spec, newPolicy, pl, err := o.resolve(sched.spec)
	if err != nil {
		return nil, err
	}
	s := &LiveSession{
		cfg: ClusterConfig{
			Nodes:              cfg.Nodes,
			MapSlotsPerNode:    cfg.MapSlotsPerNode,
			ReduceSlotsPerNode: cfg.ReduceSlotsPerNode,
		},
		spec:    spec,
		planner: pl,
		ins:     o.obs,
	}
	pol := cluster.InstrumentPolicy(newPolicy(o.seed), o.obs)
	cfg.Admission, cfg.Obs = o.admission, o.obs
	if useTCP {
		s.cluster, err = live.NewTCP(cfg, pol)
	} else {
		s.cluster, err = live.New(cfg, pol)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Submit queues a workflow, generating its plan client-side through the
// session planner under WOHA schedulers.
func (s *LiveSession) Submit(w *Workflow) error {
	plans, err := s.spec.Plans(s.planner, []*Workflow{w}, plan.Caps{Maps: s.cfg.MapSlots(), Reduces: s.cfg.ReduceSlots()}, s.ins)
	if err != nil {
		return fmt.Errorf("woha: %w", err)
	}
	var p *Plan
	if plans != nil {
		p = plans[0]
	}
	return s.SubmitWithPlan(w, p)
}

// SubmitWithPlan queues a workflow with a caller-provided plan (may be nil).
func (s *LiveSession) SubmitWithPlan(w *Workflow, p *Plan) error {
	if err := s.cluster.Submit(w, p); err != nil {
		return fmt.Errorf("woha: %w", err)
	}
	return nil
}

// Run executes the live cluster until every workflow completes or ctx ends,
// then releases any TCP transport.
func (s *LiveSession) Run(ctx context.Context) (*LiveResult, error) {
	res, err := s.cluster.Run(ctx)
	if cerr := s.cluster.CloseTransport(); err == nil && cerr != nil {
		err = fmt.Errorf("woha: closing transport: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}
