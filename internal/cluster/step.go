package cluster

// Stepping primitives: the simulator's run loop, exposed piecewise so an
// external driver can interleave several simulators under one shared virtual
// clock. Run() is exactly Start + StepTo(MaxTime) + Finish; the federation
// layer (internal/federation) instead calls Peek on every member cluster,
// advances only the globally-earliest one with StepTo, and injects routed
// workflows mid-run with SubmitLive. The frozen refsim oracle knows nothing
// of any of this, and plain Run byte-identity against it is unchanged.

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/plan"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// Start freezes the pre-submitted arrival set and arms the run's standing
// event sources — the staggered heartbeat grids and the scripted failure
// schedule — without processing any event. Run calls it internally; external
// drivers call it once and then advance the simulator with StepTo.
//
// Unlike Run, Start arms heartbeats even when nothing has been submitted
// yet: a federation member must be able to receive its first workflow via
// SubmitLive after time has started moving. The initial ticks of a still-
// empty cluster die out on their own (rearmHeartbeat's run-complete path,
// doneCount == len(states) == 0), which is exactly the state a pre-run
// Submit would have found them in.
func (s *Simulator) Start() error {
	if s.ran {
		return fmt.Errorf("cluster: Start after Run or Start")
	}
	s.ran = true
	slices.Sort(s.arrivalTimes)
	if s.cfg.HeartbeatInterval > 0 {
		// Stagger heartbeats evenly across the interval, as a real fleet's
		// unsynchronized trackers would. Each node's ticks stay on its own
		// phase grid (Epoch + offset + k*interval) for the whole run, so
		// suppression and skip-ahead can never shift the tick times a node
		// would naturally have fired at.
		for i := range s.nodes {
			s.armHeartbeat(i, simtime.Epoch.Add(s.hbOffset(i)))
		}
	}
	// The ticks just armed wait in due, and the reference armed them before
	// the failures too: push settles a failure on a node's first tick behind
	// that tick.
	for _, f := range s.cfg.Failures {
		s.push(f.At, event{kind: evFail, a: int32(f.Node)})
		if f.Downtime > 0 {
			s.push(f.At.Add(f.Downtime), event{kind: evRecover, a: int32(f.Node)})
		}
	}
	return nil
}

// Peek returns the instant of the earliest pending event — the queue's, or a
// tick kept beside it in due — without processing it. ok is false when
// neither is left (the simulator is fully drained).
func (s *Simulator) Peek() (at simtime.Time, ok bool) {
	at, ok = s.events.Peek()
	if s.dueFirst(at, ok) {
		return s.nodes[s.dueNode].dueAt, true
	}
	return at, ok
}

// StepTo processes every pending instant at or before t, in order, and
// returns the number of events executed. The ticks a sleeping node is spared
// in heartbeat mode (rearmHeartbeat) are no part of it: they are added to
// Result.SimulatedEvents when the node wakes. The simulator's clock rests at
// the last instant processed; events that handlers push within the window are
// processed too, exactly as Run's internal loop would have.
//
// The queue is drained once per instant: every event already scheduled at the
// earliest pending time arrives in one batch, in push order — exactly the
// order a pop-per-event loop would have delivered, so each handler (and the
// dispatch pass it triggers) runs against identical intermediate state.
// Events a handler pushes at the still-current instant (a heartbeat wake, an
// instant activation) form the next batch, again matching pop-per-event
// ordering by seq stamp.
func (s *Simulator) StepTo(t simtime.Time) int {
	applied := 0
	for {
		at, ok := s.events.Peek()
		if s.dueFirst(at, ok) {
			// A near tick, kept beside the queue (armHeartbeat).
			node := s.dueNode
			if s.nodes[node].dueAt > t {
				return applied
			}
			s.now = s.nodes[node].dueAt
			s.takeDue(node)
			s.eventCount++
			applied++
			s.m.events[evHeartbeat].Inc()
			s.heartbeat(node)
			continue
		}
		if !ok || at > t {
			return applied
		}
		s.batch = s.batch[:0]
		at, n := s.events.DrainInstant(&s.batch)
		s.now = at
		s.eventCount += n
		s.drainBatches++
		s.drainCoalesced += n - 1
		applied += n
		for i := 0; i < n; i++ {
			e := s.batch[i]
			s.m.events[e.kind].Inc()
			switch e.kind {
			case evArrival:
				s.arrive(int(e.a))
			case evActivate:
				s.activate(int(e.a), workflow.JobID(e.b))
			case evComplete:
				s.complete(e.a, e.gen)
			case evHeartbeat:
				s.heartbeat(int(e.a))
			case evFail:
				s.fail(int(e.a))
			case evRecover:
				s.recover(int(e.a))
			case evRetry:
				if s.specWake <= s.now {
					s.specWake = simtime.MaxTime
				}
				s.wakeIfSpeculating()
				s.dispatchAll()
			}
		}
	}
}

// Finish flushes the run's deferred metrics, checks for stuck workflows, and
// returns the results. Call once, after the event queue has drained.
func (s *Simulator) Finish() (*Result, error) {
	s.flushRunMetrics()
	if s.doneCount != len(s.states) {
		for _, ws := range s.states {
			if !ws.Done {
				return nil, fmt.Errorf("cluster: workflow %q stuck with %d tasks remaining (policy %s left schedulable work idle or cluster lacks a slot type)",
					ws.Spec.Name, ws.remaining, s.pol.Name())
			}
		}
	}
	return s.result(), nil
}

// SubmitLive submits a workflow to a started simulator, for arrival at its
// release time (which must not precede the simulator's clock). Before Start
// it is exactly Submit.
//
// The event stream from the release instant onward is identical to the
// stream a pre-run Submit of the same workflow would have produced — the
// property the federation staleness=0 equivalence test pins. Two details
// make that hold:
//
//   - the arrival event is injected with PushFront, so it precedes the
//     completions and heartbeats already pending at the same instant (a tick
//     in due yields to the queue at a tie), just as a Submit-time arrival's
//     older seq stamp would have;
//   - nodes parked when the run drained (their re-arm was declined only
//     because no arrival was known; see nodeState.parked) are re-armed on
//     their own phase grid at the first tick ≥ release, the precise instant
//     the drained-skip branch would have chosen had the arrival been
//     pre-submitted. Busy-suppressed and sleeping nodes stay as they are —
//     a pre-run Submit would not have ticked them either; completions,
//     recoveries and the newcomer's own activations wake them identically
//     in both histories.
func (s *Simulator) SubmitLive(w *workflow.Workflow, p *plan.Plan) error {
	if !s.ran {
		return s.Submit(w, p)
	}
	if err := w.Validated(); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	if w.Release < s.now {
		return fmt.Errorf("cluster: SubmitLive %q releases at %v, before the simulator's instant %v",
			w.Name, w.Release, s.now)
	}
	if w.Release == s.now && s.nAsleep > 0 {
		// StepTo has been through this instant, and through the tick a
		// sleeper had on it: the arrival must not find that tick still to
		// come. Count it now.
		if node := s.nodeAt(s.now); node >= 0 && s.asleep.has(node) && s.nodes[node].lastTick < s.now {
			s.nodes[node].lastTick = s.now
			s.eventCount++
			s.quietTicks++
		}
	}
	ws := s.enroll(w, p)
	s.events.PushFront(w.Release, event{kind: evArrival, a: int32(ws.Index)})
	// Keep the pending suffix of the arrival-time multiset sorted, so
	// heartbeat skip-ahead still reads the earliest pending arrival at
	// arrivalTimes[arrIdx].
	i := len(s.arrivalTimes)
	s.arrivalTimes = append(s.arrivalTimes, w.Release)
	for i > s.arrIdx && s.arrivalTimes[i-1] > s.arrivalTimes[i] {
		s.arrivalTimes[i-1], s.arrivalTimes[i] = s.arrivalTimes[i], s.arrivalTimes[i-1]
		i--
	}
	s.arrivalsLeft++
	if s.cfg.HeartbeatInterval > 0 {
		for n := range s.nodes {
			if s.nodes[n].parked {
				s.armHeartbeat(n, s.nextTick(n, w.Release))
			}
		}
	}
	return nil
}

// Now returns the simulator's clock: the instant of the last event processed
// (Epoch before any).
func (s *Simulator) Now() simtime.Time {
	return s.now
}

// Load is a point-in-time view of one simulator's occupancy — the quantity
// the federation routers decide on. The simulator keeps it current at every
// point that changes it, so taking one costs a copy.
type Load struct {
	// At is the owning simulator's clock when the view was taken.
	At simtime.Time
	// ActiveWorkflows counts arrived-or-pending workflows not yet finished
	// or rejected.
	ActiveWorkflows int
	// RunningTasks counts tasks currently executing (a speculative duplicate
	// is the same task); PendingTasks counts tasks of active workflows not
	// yet started.
	RunningTasks int
	PendingTasks int
	// Backlog is the summed estimated duration of every pending task — the
	// slot-time the cluster still owes its admitted work.
	Backlog time.Duration
	// FreeMaps and FreeReduces count idle slots on up nodes.
	FreeMaps    int
	FreeReduces int
	// MapSlots and ReduceSlots echo the configured capacity.
	MapSlots    int
	ReduceSlots int
}

func (l *Load) addFree(st SlotType, d int) {
	if st == MapSlot {
		l.FreeMaps += d
	} else {
		l.FreeReduces += d
	}
}

// LoadView snapshots the simulator's current load.
func (s *Simulator) LoadView() Load {
	l := s.load
	l.At = s.now
	return l
}
