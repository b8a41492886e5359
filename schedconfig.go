package woha

import (
	"encoding/xml"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/planner"
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
		cfg.PlanMargin = planner.DefaultMargin
	}
	if cfg.PlanMargin < 0 || cfg.PlanMargin > 1 {
		return nil, fmt.Errorf("woha: plan-margin %v outside (0, 1]", cfg.PlanMargin)
	}
	if _, err := cfg.resolve(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// queueKinds maps the <queue> names to the WOHA queue backends; the empty
// name selects the default, the paper's Double Skip List.
var queueKinds = map[string]core.QueueKind{
	"": core.QueueDSL, "DSL": core.QueueDSL, "BST": core.QueueBST, "Naive": core.QueueNaive,
}

// resolve looks the config up in the one scheduler table: the scheduler's
// spec, with the configured queue backend set.
func (c *SchedulerConfig) resolve() (experiments.SchedulerSpec, error) {
	name := c.Scheduler
	switch c.Scheduler {
	case "FIFO", "Fair", "EDF":
	case "WOHA":
		gen := c.PlanGenerator
		if gen == "" {
			gen = "LPF"
		}
		name = "WOHA-" + gen
	default:
		return experiments.SchedulerSpec{}, fmt.Errorf("woha: unknown scheduler %q (want WOHA, FIFO, Fair, or EDF)", c.Scheduler)
	}
	spec, err := experiments.SchedulerByName(name)
	if err != nil {
		return spec, fmt.Errorf("woha: unknown plan generator %q (want HLF, LPF, or MPF)", c.PlanGenerator)
	}
	qk, ok := queueKinds[c.Queue]
	if !ok {
		return spec, fmt.Errorf("woha: unknown queue backend %q (want DSL, BST, or Naive)", c.Queue)
	}
	spec.Queue = qk
	return spec, nil
}

// NewSessionFromConfig builds a session for a cluster using the parsed
// workflow-scheduler.xml configuration. Its plans come from a planner at the
// config's plan-margin: a private one, or WithPlanner's, which must target
// that margin.
func NewSessionFromConfig(cluster ClusterConfig, sc *SchedulerConfig, opts ...SessionOption) (*Session, error) {
	o := applyOptions(opts)
	margin := sc.PlanMargin
	if margin == 0 {
		margin = planner.DefaultMargin
	}
	if o.planner == nil {
		o.planner = planner.New(planner.Config{Margin: margin, Obs: o.obs})
	} else if o.planner.Margin() != margin {
		return nil, fmt.Errorf("woha: WithPlanner's margin %v differs from the config's plan-margin %v", o.planner.Margin(), margin)
	}
	return newSession(cluster, sc.resolve, o)
}
