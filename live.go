package woha

import (
	"context"
	"fmt"

	"repro/internal/cluster"
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
	prio    PriorityPolicy
	planner *Planner
	cluster *live.Cluster
	ins     *Instrumentation
}

// NewLiveSession creates a live session. Set UseTCP to route heartbeats over
// a real TCP loopback connection via net/rpc. It takes the Session options:
// WithAdmission sets the front door (an error if cfg.Admission is set too),
// and the planner options shape Submit's plans as they do Session's.
// WithObserver is refused; the live cluster reports through
// WithInstrumentation.
func NewLiveSession(cfg LiveConfig, sched Scheduler, useTCP bool, opts ...SessionOption) (*LiveSession, error) {
	o := sessionOptions{margin: 0.85}
	for _, opt := range opts {
		opt(&o)
	}
	if o.observer != nil {
		return nil, fmt.Errorf("woha: NewLiveSession does not accept WithObserver; use WithInstrumentation")
	}
	if o.admission != nil {
		if cfg.Admission != nil {
			return nil, fmt.Errorf("woha: WithAdmission conflicts with LiveConfig.Admission; set one")
		}
		cfg.Admission = o.admission
	}
	pol := o.policy
	if pol == nil {
		var err error
		pol, err = sched.newPolicy(o.seed, o.obs)
		if err != nil {
			return nil, err
		}
	}
	s := &LiveSession{
		cfg: ClusterConfig{
			Nodes:              cfg.Nodes,
			MapSlotsPerNode:    cfg.MapSlotsPerNode,
			ReduceSlotsPerNode: cfg.ReduceSlotsPerNode,
		},
		prio: sched.priorityFor(),
		ins:  o.obs,
	}
	if s.prio != nil {
		var err error
		if s.planner, err = o.resolvePlanner(); err != nil {
			return nil, err
		}
	}
	pol = cluster.InstrumentPolicy(pol, o.obs)
	// The JobTracker reads its instrumentation from the config.
	cfg.Obs = o.obs
	var err error
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
	var p *Plan
	if s.planner != nil {
		var err error
		p, err = s.planner.Plan(w, plan.Caps{Maps: s.cfg.MapSlots(), Reduces: s.cfg.ReduceSlots()}, s.prio)
		if err != nil {
			return fmt.Errorf("woha: %w", err)
		}
		s.ins.PlanGenerated(w.Release, w.Name, p.SearchIters)
	}
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
