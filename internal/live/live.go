// Package live runs WOHA on a real concurrent mini-Hadoop instead of the
// discrete-event simulator: the JobTracker is a concurrent scheduler
// consulted by TaskTracker goroutines over periodic heartbeat messages, and
// tasks execute as timed goroutines.
//
// The same cluster.Policy implementations (WOHA, FIFO, Fair, EDF) drive both
// worlds. Virtual workflow time maps to wall time through Config.TimeScale,
// so a 45-minute workflow can run in tens of milliseconds of test time while
// the control plane exchanges real messages.
//
// The master splits Hadoop-1's single-mutex JobTracker into an
// admission/completion/assignment pipeline — Config.Shards per-workflow
// bookkeeping shards, a narrow policy core fed by batched lifecycle events,
// and lock-free counters — so heartbeats from different TaskTrackers stop
// contending on one lock (see sharded.go). Every shard count, one included,
// produces the same scheduling outcomes as a single-mutex master; tests pin
// that against a single-mutex referee kept beside them.
//
// The package exists to demonstrate the framework under true concurrency —
// races, heartbeat skew, out-of-order completions — rather than to produce
// reproducible numbers; the experiments all run on the deterministic
// simulator.
package live

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/workflow"
)

// Config describes the live cluster.
type Config struct {
	// Nodes, MapSlotsPerNode, ReduceSlotsPerNode mirror cluster.Config.
	Nodes              int
	MapSlotsPerNode    int
	ReduceSlotsPerNode int
	// HeartbeatInterval is the real-time period between a TaskTracker's
	// reports to the JobTracker.
	HeartbeatInterval time.Duration
	// TimeScale converts workflow (virtual) durations to wall time: a task
	// estimated at D runs for D * TimeScale. 0.001 runs a 10-second task
	// in 10ms.
	TimeScale float64
	// Shards partitions the JobTracker's workflow bookkeeping across that
	// many independently locked shards, beside its policy core and lock-free
	// heartbeat fast path. 0 (the default) uses one shard per CPU
	// (GOMAXPROCS). Scheduling outcomes are identical across shard counts.
	Shards int
	// Obs attaches runtime observability to the JobTracker: heartbeat
	// latency and assignment histograms, task-assignment and workflow
	// lifecycle events. nil disables instrumentation (the default).
	Obs *obs.Obs
	// Admission is the front door consulted when each workflow's release
	// comes due, before the policy ever sees it. nil (the default) admits
	// everything on the untouched fast path. The tracker rules on releases in
	// (release time, submission index) order and on deferred retries at their
	// retry instants, so decisions match the simulator's under the
	// controller's virtual-time anchoring.
	Admission admission.Controller
}

// validate checks the cluster shape. Every violation reports in the uniform
// form "live: <field> = <value>, want <constraint>".
func (c Config) validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("live: Nodes = %d, want > 0", c.Nodes)
	}
	if c.MapSlotsPerNode < 0 {
		return fmt.Errorf("live: MapSlotsPerNode = %d, want >= 0", c.MapSlotsPerNode)
	}
	if c.ReduceSlotsPerNode < 0 {
		return fmt.Errorf("live: ReduceSlotsPerNode = %d, want >= 0", c.ReduceSlotsPerNode)
	}
	if c.MapSlotsPerNode+c.ReduceSlotsPerNode == 0 {
		return fmt.Errorf("live: MapSlotsPerNode+ReduceSlotsPerNode = 0, want > 0")
	}
	if c.HeartbeatInterval <= 0 {
		return fmt.Errorf("live: HeartbeatInterval = %v, want > 0", c.HeartbeatInterval)
	}
	if c.TimeScale <= 0 {
		return fmt.Errorf("live: TimeScale = %v, want > 0", c.TimeScale)
	}
	if c.Shards < 0 {
		return fmt.Errorf("live: Shards = %d, want >= 0", c.Shards)
	}
	return nil
}

// shardCount resolves the Shards default: one shard per CPU.
func (c Config) shardCount() int {
	if c.Shards > 0 {
		return c.Shards
	}
	return runtime.GOMAXPROCS(0)
}

// TaskID identifies a running task inside the live cluster.
type TaskID struct {
	Workflow int
	Job      workflow.JobID
	Type     cluster.SlotType
	Seq      int
}

// Assignment is the JobTracker's response entry to a heartbeat: run one task
// for the given wall duration.
type Assignment struct {
	ID       TaskID
	WallTime time.Duration
}

// Heartbeat is a TaskTracker's periodic report: its identity, current free
// slots, and tasks completed since the last report.
//
// Ownership: the cluster reads Completed only during the synchronous
// completion pass inside DeliverHeartbeat and never retains the slice past
// the call's return. The caller keeps ownership afterwards — but because the
// slice is read while the call is in flight, a caller that reuses the
// backing array across heartbeats must hand the cluster its own copy rather
// than a slice it truncates and refills concurrently.
type Heartbeat struct {
	Tracker   int
	FreeMaps  int
	FreeReds  int
	Completed []TaskID
}

// controlPlane is the JobTracker contract a Cluster drives. The sharded
// tracker is its only implementation outside tests; the interface lets the
// equivalence tests run a Cluster on the single-mutex referee instead.
// register is pre-start only and single-threaded; it returns an error, and
// changes nothing, if it is called after the clock starts.
type controlPlane interface {
	// Heartbeat serves one TaskTracker report and returns assignments.
	Heartbeat(hb Heartbeat) []Assignment
	// register records a workflow before the cluster starts.
	register(w *workflow.Workflow, p *plan.Plan) error
	// start stamps the clock origin and freezes registration.
	start()
	// ensureClock stamps the clock lazily for heartbeats delivered outside
	// Run (see Cluster.DeliverHeartbeat).
	ensureClock()
	// result snapshots the outcome.
	result() *Result
	// doneCh closes when every registered workflow has completed.
	doneCh() <-chan struct{}
	// registered reports the number of registered workflows.
	registered() int
}

// errLateRegister is register's refusal once the clock is stamped: the
// release index is built and heartbeats read workflow tables without a lock.
func errLateRegister(w *workflow.Workflow) error {
	return fmt.Errorf("live: registering %q after the cluster started; Submit every workflow before Run or DeliverHeartbeat", w.Name)
}

// newControlPlane builds the JobTracker for cfg: the sharded tracker at the
// configured shard count.
func newControlPlane(cfg Config, pol cluster.Policy) controlPlane {
	return newShardedTracker(cfg, pol, cfg.shardCount())
}

// Cluster is the live mini-Hadoop: one JobTracker plus Config.Nodes
// TaskTracker goroutines.
type Cluster struct {
	cfg Config
	jt  controlPlane

	trackers []*TaskTracker
	wg       sync.WaitGroup

	// transport is non-nil for clusters built with NewTCP.
	transport *tcpTransport

	started bool
}

// New builds a live cluster running pol. The policy must not be shared with
// any other cluster.
func New(cfg Config, pol cluster.Policy) (*Cluster, error) {
	return newCluster(cfg, pol, newControlPlane, false)
}

// newCluster is New and NewTCP: it checks cfg and pol, builds the control
// plane with plane, and connects each of the cfg.Nodes TaskTrackers to it —
// by a direct call, or with tcp by its own net/rpc client over loopback.
func newCluster(cfg Config, pol cluster.Policy, plane func(Config, cluster.Policy) controlPlane, tcp bool) (*Cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if pol == nil {
		return nil, fmt.Errorf("live: nil policy")
	}
	c := &Cluster{cfg: cfg, jt: plane(cfg, pol)}
	cfg.Obs.Health().SetSlots(cfg.Nodes*cfg.MapSlotsPerNode, cfg.Nodes*cfg.ReduceSlotsPerNode)
	connect := func() (heartbeatFunc, error) {
		return func(h Heartbeat) ([]Assignment, error) { return c.jt.Heartbeat(h), nil }, nil
	}
	if tcp {
		var err error
		if connect, err = c.listen(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.Nodes; i++ {
		hb, err := connect()
		if err != nil {
			_ = c.CloseTransport()
			return nil, err
		}
		c.trackers = append(c.trackers, newTaskTracker(i, cfg, hb))
	}
	return c, nil
}

// Submit registers a workflow before Start. p may be nil for non-WOHA
// policies. Releases are honored relative to the cluster start instant. It
// errs, and changes nothing, once Run or DeliverHeartbeat has started the
// cluster.
func (c *Cluster) Submit(w *workflow.Workflow, p *plan.Plan) error {
	if c.started {
		return fmt.Errorf("live: Submit after Start")
	}
	if err := w.Validated(); err != nil {
		return fmt.Errorf("live: %w", err)
	}
	idx := c.jt.registered()
	if err := c.jt.register(w, p); err != nil {
		return err
	}
	c.cfg.Obs.Health().Register(idx, w.Name, w.Release, w.Deadline, w.TotalTasks(), p)
	return nil
}

// DeliverHeartbeat injects one heartbeat directly into the JobTracker,
// bypassing the TaskTracker goroutines and any transport. It exists for
// benchmarks and tests that measure the scheduling path in isolation; the
// virtual clock is stamped lazily on first use so the cluster need not be
// started. After the first delivery registration is frozen, exactly as
// after Run.
func (c *Cluster) DeliverHeartbeat(hb Heartbeat) []Assignment {
	c.jt.ensureClock()
	return c.jt.Heartbeat(hb)
}

// Run starts the cluster, waits until every submitted workflow completes (or
// ctx is done), stops the trackers, and returns the outcome.
func (c *Cluster) Run(ctx context.Context) (*Result, error) {
	if c.started {
		return nil, fmt.Errorf("live: Run called twice")
	}
	c.started = true
	if c.jt.registered() == 0 {
		return c.jt.result(), nil
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	c.jt.start()
	for _, tt := range c.trackers {
		c.wg.Add(1)
		go func(tt *TaskTracker) {
			defer c.wg.Done()
			tt.run(runCtx)
		}(tt)
	}

	var err error
	select {
	case <-c.jt.doneCh():
	case <-ctx.Done():
		err = fmt.Errorf("live: %w", ctx.Err())
	}
	cancel()
	c.wg.Wait()
	if err != nil {
		return nil, err
	}
	return c.jt.result(), nil
}

// Result mirrors the simulator's per-workflow outcome for the live run.
type Result struct {
	// Policy names the scheduler.
	Policy string
	// Workflows holds per-workflow outcomes in submission order; times are
	// in virtual (workflow) time.
	Workflows []cluster.WorkflowResult
	// TasksStarted counts every task executed.
	TasksStarted int
}

// DeadlineMisses counts missed deadlines.
func (r *Result) DeadlineMisses() int {
	n := 0
	for _, w := range r.Workflows {
		if !w.Met {
			n++
		}
	}
	return n
}
