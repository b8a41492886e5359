package woha

import (
	"encoding/xml"
	"fmt"
	"io"

	"repro/internal/core"
)

// SchedulerConfig mirrors the paper's workflow-scheduler.xml: the WOHA
// release lets operators swap the Workflow Scheduler and the Scheduling Plan
// Generator by editing a two-line configuration file. This reproduction's
// equivalent selects the scheduler, the intra-workflow priority policy, and
// the WOHA engine options.
//
// Example document:
//
//	<workflow-scheduler>
//	  <scheduler>WOHA</scheduler>
//	  <plan-generator>LPF</plan-generator>
//	  <queue>DSL</queue>
//	  <plan-margin>0.85</plan-margin>
//	</workflow-scheduler>
type SchedulerConfig struct {
	// Scheduler is "WOHA", "FIFO", "Fair", or "EDF".
	Scheduler string
	// PlanGenerator is the intra-workflow priority for WOHA: "HLF", "LPF",
	// or "MPF".
	PlanGenerator string
	// Queue is the WOHA queue backend: "DSL" (default), "BST", or "Naive".
	Queue string
	// PlanMargin is the plan safety margin (default 0.85).
	PlanMargin float64
}

type xmlSchedConfig struct {
	XMLName       xml.Name `xml:"workflow-scheduler"`
	Scheduler     string   `xml:"scheduler"`
	PlanGenerator string   `xml:"plan-generator"`
	Queue         string   `xml:"queue"`
	PlanMargin    float64  `xml:"plan-margin"`
}

// ParseSchedulerConfig reads a workflow-scheduler.xml document.
func ParseSchedulerConfig(r io.Reader) (*SchedulerConfig, error) {
	var doc xmlSchedConfig
	if err := xml.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("woha: parsing scheduler config: %w", err)
	}
	cfg := &SchedulerConfig{
		Scheduler:     doc.Scheduler,
		PlanGenerator: doc.PlanGenerator,
		Queue:         doc.Queue,
		PlanMargin:    doc.PlanMargin,
	}
	if cfg.Scheduler == "" {
		return nil, fmt.Errorf("woha: scheduler config missing <scheduler>")
	}
	if cfg.PlanMargin == 0 {
		cfg.PlanMargin = 0.85
	}
	if cfg.PlanMargin < 0 || cfg.PlanMargin > 1 {
		return nil, fmt.Errorf("woha: plan-margin %v outside (0, 1]", cfg.PlanMargin)
	}
	if _, err := cfg.resolve(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// resolve maps the config to a session scheduler name.
func (c *SchedulerConfig) resolve() (Scheduler, error) {
	switch c.Scheduler {
	case "FIFO":
		return SchedulerFIFO, nil
	case "Fair":
		return SchedulerFair, nil
	case "EDF":
		return SchedulerEDF, nil
	case "WOHA":
		gen := c.PlanGenerator
		if gen == "" {
			gen = "LPF"
		}
		switch gen {
		case "LPF":
			return SchedulerWOHALPF, nil
		case "HLF":
			return SchedulerWOHAHLF, nil
		case "MPF":
			return SchedulerWOHAMPF, nil
		default:
			return "", fmt.Errorf("woha: unknown plan generator %q (want HLF, LPF, or MPF)", gen)
		}
	default:
		return "", fmt.Errorf("woha: unknown scheduler %q (want WOHA, FIFO, Fair, or EDF)", c.Scheduler)
	}
}

// queueKind maps the config's queue name.
func (c *SchedulerConfig) queueKind() (core.QueueKind, error) {
	switch c.Queue {
	case "", "DSL":
		return core.QueueDSL, nil
	case "BST":
		return core.QueueBST, nil
	case "Naive":
		return core.QueueNaive, nil
	default:
		return 0, fmt.Errorf("woha: unknown queue backend %q (want DSL, BST, or Naive)", c.Queue)
	}
}

// NewSessionFromConfig builds a session for a cluster using the parsed
// workflow-scheduler.xml configuration.
func NewSessionFromConfig(cluster ClusterConfig, sc *SchedulerConfig, opts ...SessionOption) (*Session, error) {
	sched, err := sc.resolve()
	if err != nil {
		return nil, err
	}
	qk, err := sc.queueKind()
	if err != nil {
		return nil, err
	}
	all := []SessionOption{WithPlanMargin(sc.PlanMargin)}
	all = append(all, opts...)
	if prio := sched.priorityFor(); prio != nil {
		// Build the WOHA engine explicitly so the queue backend applies,
		// then let the session generate plans as usual.
		o := sessionOptions{margin: sc.PlanMargin}
		for _, opt := range all {
			opt(&o)
		}
		pol := core.NewScheduler(core.Options{
			Queue:      qk,
			Seed:       o.seed,
			PolicyName: prio.Name(),
		})
		sess, err := NewSession(cluster, sched, append(all, WithPolicy(pol))...)
		if err != nil {
			return nil, err
		}
		// WithPolicy normally disables automatic plan generation (custom
		// policies bring their own submission pipeline); a config-built
		// WOHA engine still wants session-generated plans.
		sess.prio = prio
		sess.opts.policy = nil
		return sess, nil
	}
	return NewSession(cluster, sched, all...)
}
