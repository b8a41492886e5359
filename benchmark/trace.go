package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/plan"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// All tracing lives in this file and is applied from outside the program
// under test: wrappers around the three plug-in seams (cluster.Policy,
// admission.Controller, federation.Router) and timed calls around the
// per-pass entry points. Nothing inside internal/ is touched, so what a
// layer does below its boundary (event heap versus dispatch versus
// bookkeeping inside cluster) is not visible here — that needs counters in
// the program and is a later change.

// span is one timed call at a layer boundary. Per-pass and per-workflow
// calls get one each; per-task calls aggregate into an agg on the pass span.
type span struct {
	name string
	// wf names the workflow a per-workflow span belongs to; with the pass
	// span's "workload/seed" it forms the shared id workload/seed/workflow.
	wf         string
	parent     int32
	start, end int64 // ns since tracer.epoch
}

// tracer keeps a run's spans in memory until the run ends. Only the
// goroutine driving the pass records spans (worker goroutines aggregate
// into their own wrappers instead), so it needs no lock.
type tracer struct {
	epoch time.Time
	spans []span
	// ids[i] is span i's "workload/seed" prefix (pass spans and below);
	// attrs[i] the per-task aggregates attached to pass span i.
	ids   map[int32]string
	attrs map[int32]map[string]*agg
	// emptyNs is the mean duration measured around an empty interval, which
	// every measured call is inflated by; pairNs is the wall cost of one
	// begin/end clock pair, of which the part not inside the child's own
	// interval lands in the parent's self time.
	emptyNs, pairNs float64
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), ids: map[int32]string{}, attrs: map[int32]map[string]*agg{}}
	t.emptyNs, t.pairNs = calibrateTimer()
	return t
}

// calibrateTimer measures what looking costs: the mean interval a clock pair
// reports around nothing, and the wall time the pair itself takes.
func calibrateTimer() (emptyNs, pairNs float64) {
	const n = 200000
	var sum int64
	t0 := time.Now()
	for i := 0; i < n; i++ {
		s := time.Now()
		sum += int64(time.Since(s))
	}
	return float64(sum) / n, float64(time.Since(t0)) / n
}

func (t *tracer) begin(name, wf string, parent int32) int32 {
	t.spans = append(t.spans, span{name: name, wf: wf, parent: parent, start: int64(time.Since(t.epoch))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) time.Duration {
	s := &t.spans[id]
	s.end = int64(time.Since(t.epoch))
	return time.Duration(s.end - s.start)
}

// verifyNesting checks the span file's structural promise: every non-root
// span names an existing earlier parent and lies inside it.
func (t *tracer) verifyNesting() error {
	for i := range t.spans {
		s := &t.spans[i]
		if s.end < s.start {
			return fmt.Errorf("trace: span %d (%s) ends before it starts", i, s.name)
		}
		if s.parent < 0 {
			continue
		}
		if int(s.parent) >= i {
			return fmt.Errorf("trace: span %d (%s) names parent %d, which does not precede it", i, s.name, s.parent)
		}
		if p := &t.spans[s.parent]; s.start < p.start || s.end > p.end {
			return fmt.Errorf("trace: span %d (%s) [%d,%d] lies outside parent %d (%s) [%d,%d]",
				i, s.name, s.start, s.end, s.parent, p.name, p.start, p.end)
		}
	}
	return nil
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	type aggDoc struct {
		Count   int64   `json:"count"`
		TotalNs int64   `json:"total_ns"`
		P50Ns   float64 `json:"p50_ns"`
		P99Ns   float64 `json:"p99_ns"`
		// Hist lists the non-empty histogram buckets as [lower_ns, count].
		Hist [][2]float64 `json:"log2_hist"`
	}
	type spanDoc struct {
		ID      int               `json:"id"`
		Parent  int               `json:"parent"`
		Name    string            `json:"name"`
		TraceID string            `json:"trace_id"`
		StartNs int64             `json:"start_ns"`
		EndNs   int64             `json:"end_ns"`
		Aggs    map[string]aggDoc `json:"aggregates,omitempty"`
	}
	doc := struct {
		TimerEmptyNs float64   `json:"timer_empty_interval_ns"`
		TimerPairNs  float64   `json:"timer_pair_ns"`
		Spans        []spanDoc `json:"spans"`
	}{TimerEmptyNs: t.emptyNs, TimerPairNs: t.pairNs, Spans: make([]spanDoc, len(t.spans))}
	prefix := make([]string, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		if id, ok := t.ids[int32(i)]; ok {
			prefix[i] = id
		} else if s.parent >= 0 {
			prefix[i] = prefix[s.parent]
		}
		d := spanDoc{ID: i, Parent: int(s.parent), Name: s.name, TraceID: prefix[i], StartNs: s.start, EndNs: s.end}
		if s.wf != "" {
			d.TraceID += "/" + s.wf
		}
		for name, a := range t.attrs[int32(i)] {
			if d.Aggs == nil {
				d.Aggs = map[string]aggDoc{}
			}
			ad := aggDoc{Count: a.count, TotalNs: a.total, P50Ns: a.quantile(0.5), P99Ns: a.quantile(0.99)}
			for b, n := range a.hist {
				if n > 0 {
					ad.Hist = append(ad.Hist, [2]float64{histLower(b), float64(n)})
				}
			}
			d.Aggs[name] = ad
		}
		doc.Spans[i] = d
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(&doc); err != nil {
		f.Close()
		return fmt.Errorf("trace: writing %s: %w", path, err)
	}
	return f.Close()
}

// passTrace is the tracing context of one pass: the tracer, the pass span
// new spans hang under, and the wrappers handed out so their aggregates can
// be collected when the pass ends. A nil *passTrace means tracing is off:
// every method then returns its argument untouched and records nothing, so
// the untraced path runs exactly the program's own code.
type passTrace struct {
	t    *tracer
	pass int32
	// cur is the span per-workflow spans attach to (the enclosing
	// Federation.Run or Simulator.Run), set by call.
	cur int32
	// policies is appended to from runner worker goroutines (each cell
	// builds its own policy there); policyMu guards it.
	policyMu sync.Mutex
	policies []*tracedPolicy
	adms     []*tracedAdmission
	routers  []*tracedRouter
}

func (t *tracer) pass(workload string, seed int64, parent int32) *passTrace {
	if t == nil {
		return nil
	}
	id := t.begin("pass", "", parent)
	t.ids[id] = fmt.Sprintf("%s/%d", workload, seed)
	return &passTrace{t: t, pass: id, cur: id}
}

// call times fn as a child span of the pass and returns its duration. It
// works untraced too — two clock reads per pass cost nothing — so the
// pass-level layer walls exist in every run.
func (pt *passTrace) call(name string, fn func() error) (time.Duration, error) {
	if pt == nil {
		t0 := time.Now()
		err := fn()
		return time.Since(t0), err
	}
	id := pt.t.begin(name, "", pt.pass)
	prev := pt.cur
	pt.cur = id
	err := fn()
	pt.cur = prev
	return pt.t.end(id), err
}

// finish closes the pass span and attaches the per-task aggregates.
func (pt *passTrace) finish(aggs map[string]*agg) {
	if pt == nil {
		return
	}
	pt.t.end(pt.pass)
	pt.t.attrs[pt.pass] = aggs
}

// Aggregate and fact names the wrappers report under. A policy is the WOHA
// core when it is a *core.Scheduler and a baseline scheduler otherwise.
const (
	aggNextTask = ".NextTask"
	aggNotify   = ".notify"
	aggDecide   = "admission.Decide"
	aggComplete = "admission.Complete"
	aggRoute    = "federation.Route"
	fHitsSuffix = ".hits"
)

// collectInto hands the pass what its wrappers saw: aggregates by layer, plus
// the counts that only a wrapper can know. Untraced, it does nothing.
func (pt *passTrace) collectInto(out *passOut) {
	if pt == nil {
		return
	}
	out.aggs = map[string]*agg{}
	get := func(name string) *agg {
		if out.aggs[name] == nil {
			out.aggs[name] = new(agg)
		}
		return out.aggs[name]
	}
	f := out.facts
	for _, p := range pt.policies {
		layer := "scheduler"
		if _, ok := p.inner.(*core.Scheduler); ok {
			layer = "core"
		}
		get(layer + aggNextTask).merge(&p.next)
		get(layer + aggNotify).merge(&p.notify)
		f[layer+fHitsSuffix] += float64(p.hits)
	}
	for _, a := range pt.adms {
		get(aggDecide).merge(&a.decide)
		get(aggComplete).merge(&a.complete)
		f[fDecisions] += float64(a.decide.count)
	}
	for _, r := range pt.routers {
		get(aggRoute).merge(&r.route)
	}
}

// tracedPolicy forwards every cluster.Policy call to the wrapped policy and
// times it. It must also forward the two optional extensions, or the
// simulator would silently stop notifying the policy and take a different
// path; it forwards them only when the wrapped policy has them, which is
// exactly when the simulator would have called them.
type tracedPolicy struct {
	inner cluster.Policy
	rp    cluster.ReducePhasePolicy
	rq    cluster.RequeuePolicy
	// next aggregates NextTask calls, notify every other callback; hits
	// counts NextTask calls that returned a task.
	next, notify agg
	hits         int64
}

var (
	_ cluster.ReducePhasePolicy = (*tracedPolicy)(nil)
	_ cluster.RequeuePolicy     = (*tracedPolicy)(nil)
)

func (pt *passTrace) policy(p cluster.Policy) cluster.Policy {
	if pt == nil {
		return p
	}
	tp := &tracedPolicy{inner: p}
	tp.rp, _ = p.(cluster.ReducePhasePolicy)
	tp.rq, _ = p.(cluster.RequeuePolicy)
	pt.policyMu.Lock()
	pt.policies = append(pt.policies, tp)
	pt.policyMu.Unlock()
	return tp
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) NextTask(now simtime.Time, st cluster.SlotType) (*cluster.WorkflowState, workflow.JobID, bool) {
	t0 := time.Now()
	ws, job, ok := p.inner.NextTask(now, st)
	p.next.add(int64(time.Since(t0)))
	if ok {
		p.hits++
	}
	return ws, job, ok
}

func (p *tracedPolicy) WorkflowAdded(ws *cluster.WorkflowState, now simtime.Time) {
	t0 := time.Now()
	p.inner.WorkflowAdded(ws, now)
	p.notify.add(int64(time.Since(t0)))
}

func (p *tracedPolicy) JobActivated(ws *cluster.WorkflowState, job workflow.JobID, now simtime.Time) {
	t0 := time.Now()
	p.inner.JobActivated(ws, job, now)
	p.notify.add(int64(time.Since(t0)))
}

func (p *tracedPolicy) TaskStarted(ws *cluster.WorkflowState, job workflow.JobID, st cluster.SlotType, now simtime.Time) {
	t0 := time.Now()
	p.inner.TaskStarted(ws, job, st, now)
	p.notify.add(int64(time.Since(t0)))
}

func (p *tracedPolicy) WorkflowCompleted(ws *cluster.WorkflowState, now simtime.Time) {
	t0 := time.Now()
	p.inner.WorkflowCompleted(ws, now)
	p.notify.add(int64(time.Since(t0)))
}

func (p *tracedPolicy) ReducesReady(ws *cluster.WorkflowState, job workflow.JobID, now simtime.Time) {
	if p.rp == nil {
		return
	}
	t0 := time.Now()
	p.rp.ReducesReady(ws, job, now)
	p.notify.add(int64(time.Since(t0)))
}

func (p *tracedPolicy) TaskRequeued(ws *cluster.WorkflowState, job workflow.JobID, st cluster.SlotType, now simtime.Time) {
	if p.rq == nil {
		return
	}
	t0 := time.Now()
	p.rq.TaskRequeued(ws, job, st, now)
	p.notify.add(int64(time.Since(t0)))
}

// tracedAdmission records one span per Decide (a per-workflow call) and
// aggregates Complete.
type tracedAdmission struct {
	inner    admission.Controller
	pt       *passTrace
	decide   agg
	complete agg
}

func (pt *passTrace) admission(c admission.Controller) admission.Controller {
	if pt == nil {
		return c
	}
	ta := &tracedAdmission{inner: c, pt: pt}
	pt.adms = append(pt.adms, ta)
	return ta
}

func (a *tracedAdmission) Name() string { return a.inner.Name() }

func (a *tracedAdmission) Decide(w *workflow.Workflow, p *plan.Plan, now simtime.Time) admission.Decision {
	id := a.pt.t.begin("admission.Decide", w.Name, a.pt.cur)
	d := a.inner.Decide(w, p, now)
	a.decide.add(int64(a.pt.t.end(id)))
	return d
}

func (a *tracedAdmission) Complete(w *workflow.Workflow, now simtime.Time) {
	t0 := time.Now()
	a.inner.Complete(w, now)
	a.complete.add(int64(time.Since(t0)))
}

// tracedRouter records one span per routing decision.
type tracedRouter struct {
	inner federation.Router
	pt    *passTrace
	route agg
}

func (pt *passTrace) router(r federation.Router) federation.Router {
	if pt == nil {
		return r
	}
	tr := &tracedRouter{inner: r, pt: pt}
	pt.routers = append(pt.routers, tr)
	return tr
}

func (r *tracedRouter) Name() string { return r.inner.Name() }

func (r *tracedRouter) Route(w *workflow.Workflow, p *plan.Plan, snaps []federation.Snapshot) int {
	id := r.pt.t.begin("federation.Route", w.Name, r.pt.cur)
	m := r.inner.Route(w, p, snaps)
	r.route.add(int64(r.pt.t.end(id)))
	return m
}
