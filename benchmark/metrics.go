package main

import (
	"math"
	"strings"
)

// metricDecl declares one metric: the name it is printed and compared under,
// its unit, and which direction is better. BENCHMARK.json carries the same
// list (the self-test fails on any drift); README.md adds, per metric, the
// workloads it belongs to and the end-to-end metric it is predicted to move.
type metricDecl struct {
	name, unit, better string
}

// endToEnd are measured with tracing off, and every workload reports every
// one of them: each workload resolves workflows made of tasks, so both rates
// exist everywhere, and which of the two is the workload's headline is in
// README.md.
var endToEnd = []metricDecl{
	{"workflows_per_s", "1/s", "higher"},
	{"tasks_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
}

// perLayer come from a --trace 1 run. A metric of a layer the workload never
// enters reads 0 there, which is itself the prediction ("planner, admission
// and federation do none of the work on fig8_sweep").
var perLayer = []metricDecl{
	{"planner.plans_per_s", "1/s", "higher"},
	{"planner.busy_s", "s", "lower"},
	{"planner.cold_us_p50", "us", "lower"},
	{"planner.cold_us_p99", "us", "lower"},
	{"planner.hit_us_p50", "us", "lower"},
	{"planner.search_iters_per_plan", "count", "lower"},
	{"planner.cache_hit_ratio", "ratio", "higher"},
	{"planner.infeasible_ratio", "ratio", "lower"},
	{"planner.allocs_per_plan", "count", "lower"},
	{"planner.parallel_speedup", "ratio", "higher"},

	{"admission.decisions", "count", "lower"},
	{"admission.busy_s", "s", "lower"},
	{"admission.decide_us_p50", "us", "lower"},
	{"admission.decide_us_p99", "us", "lower"},
	{"admission.defers_per_workflow", "ratio", "lower"},
	{"admission.reject_ratio", "ratio", "lower"},
	{"admission.admitted_miss_ratio", "ratio", "lower"},

	{"federation.routes", "count", "higher"},
	{"federation.route_us_p50", "us", "lower"},
	{"federation.route_us_p99", "us", "lower"},
	{"federation.self_s", "s", "lower"},
	{"federation.max_member_share", "ratio", "lower"},

	{"cluster.events", "count", "lower"},
	{"cluster.ns_per_event", "ns", "lower"},
	{"cluster.events_per_task", "ratio", "lower"},
	{"cluster.self_ns_per_event", "ns", "lower"},
	{"cluster.wasted_attempt_ratio", "ratio", "lower"},
	{"cluster.utilization", "ratio", "higher"},
	{"cluster.allocs_per_scenario", "count", "lower"},

	{"core.next_task_calls", "count", "lower"},
	{"core.next_task_ns_mean", "ns", "lower"},
	{"core.busy_s", "s", "lower"},
	{"core.offer_hit_ratio", "ratio", "higher"},
	{"core.notify_calls", "count", "lower"},
	{"scheduler.next_task_calls", "count", "lower"},
	{"scheduler.next_task_ns_mean", "ns", "lower"},
	{"scheduler.busy_s", "s", "lower"},
	{"scheduler.offer_hit_ratio", "ratio", "higher"},
	{"scheduler.notify_calls", "count", "lower"},

	{"runner.parallel_speedup", "ratio", "higher"},

	{"live.heartbeats_per_s", "1/s", "higher"},
	{"live.heartbeat_ns_p50", "ns", "lower"},
	{"live.heartbeat_ns_p99", "ns", "lower"},
	{"live.assignments_per_refill", "ratio", "higher"},
	{"live.shards1_heartbeats_per_s", "1/s", "higher"},
	{"live.driver1_heartbeats_per_s", "1/s", "higher"},

	{"obs.overhead_ratio", "ratio", "lower"},

	{"model.deadline_miss_ratio", "ratio", "lower"},
	{"model.miss_ratio.EDF", "ratio", "lower"},
	{"model.miss_ratio.FIFO", "ratio", "lower"},
	{"model.miss_ratio.Fair", "ratio", "lower"},
	{"model.miss_ratio.WOHA-LPF", "ratio", "lower"},
	{"model.miss_ratio.WOHA-HLF", "ratio", "lower"},
	{"model.miss_ratio.WOHA-MPF", "ratio", "lower"},

	{"host.cpu_s", "s", "lower"},
	{"host.peak_rss_mb", "MB", "lower"},
	{"host.alloc_mb", "MB", "lower"},
	{"host.gc_pause_ms", "ms", "lower"},

	{"trace.overhead_ratio", "ratio", "lower"},
	{"trace.digest_match", "bool", "higher"},
	{"trace.timer_pair_ns", "ns", "lower"},
}

const missRatioPrefix = "model.miss_ratio."

// ledger is everything a --trace 1 run gathered about one workload.
type ledger struct {
	// plain sums the facts of the untraced passes, traced those of their
	// traced twins; aggs merges the traced passes' wrappers.
	plain, traced facts
	aggs          map[string]*agg
	// extras are the finished once-per-run readings.
	extras  map[string]float64
	host    map[string]float64
	emptyNs float64
	pairNs  float64
	// digestsMatch: every traced pass reproduced its untraced twin's digest.
	digestsMatch bool
}

func (l *ledger) agg(name string) *agg {
	if a := l.aggs[name]; a != nil {
		return a
	}
	return new(agg)
}

// metrics derives every per-layer metric. † metrics (free from results) use
// the untraced passes; wrapper timings use the traced ones.
func (l *ledger) metrics() map[string]float64 {
	p, t := l.plain, l.traced
	m := map[string]float64{}
	sec := func(ns float64) float64 { return ns / 1e9 }

	m["planner.plans_per_s"] = p.ratio(fPlans, fPlannerNs) * 1e9
	m["planner.busy_s"] = sec(p[fPlannerNs])
	m["planner.search_iters_per_plan"] = p.ratio(fPlanIters, fPlans)
	m["planner.cache_hit_ratio"] = p.ratio(fPlanHits, fPlans)
	m["planner.infeasible_ratio"] = p.ratio(fPlanInfeasible, fPlans)
	m["planner.allocs_per_plan"] = p.ratio(fPlanMallocs, fPlanMallocN)

	decide, complete := l.agg(aggDecide), l.agg(aggComplete)
	m["admission.decisions"] = t[fDecisions]
	m["admission.busy_s"] = decide.busy(l.emptyNs) + complete.busy(l.emptyNs)
	m["admission.decide_us_p50"] = decide.quantile(0.5) / 1e3
	m["admission.decide_us_p99"] = decide.quantile(0.99) / 1e3
	if t[fDecisions] > 0 {
		// Every workflow gets exactly one terminal ruling; the rest of the
		// Decide calls were deferrals coming back.
		m["admission.defers_per_workflow"] = (t[fDecisions] - t[fResolved]) / t[fResolved]
		m["admission.reject_ratio"] = p.ratio(fRejects, fResolved)
		m["admission.admitted_miss_ratio"] = p.ratio(fAdmittedMiss, fAdmitted)
	}

	route := l.agg(aggRoute)
	m["federation.routes"] = p[fRoutes]
	m["federation.route_us_p50"] = route.quantile(0.5) / 1e3
	m["federation.route_us_p99"] = route.quantile(0.99) / 1e3
	m["federation.max_member_share"] = p.ratio(fMaxRouted, fRoutes)
	var fedSelf float64
	if p[fReplayNs] > 0 && p[fReplayBroken] == 0 {
		fedSelf = p[fSimNs] - p[fReplayNs]
		m["federation.self_s"] = sec(fedSelf)
	}

	m["cluster.events"] = p[fEvents]
	m["cluster.ns_per_event"] = p.ratio(fSimNs, fEvents)
	m["cluster.events_per_task"] = p.ratio(fEvents, fRanTasks)
	if p[fStarted] > 0 {
		m["cluster.wasted_attempt_ratio"] = (p[fStarted] - p[fRanTasks]) / p[fStarted]
	}
	m["cluster.utilization"] = p.ratio(fBusySlotNs, fCapSlotNs)
	m["cluster.allocs_per_scenario"] = p.ratio(fScenMallocs, fScenMallocN)

	// What the wrappers measured inside the simulators' run, as the wrapped
	// call saw it (measured) and as the enclosing run paid for it (measured
	// plus the part of each clock pair that falls outside the interval).
	var wrappedNs, wrappedCalls float64
	for _, layer := range []string{"core", "scheduler"} {
		next, notify := l.agg(layer+aggNextTask), l.agg(layer+aggNotify)
		m[layer+".next_task_calls"] = float64(next.count)
		m[layer+".next_task_ns_mean"] = next.mean(l.emptyNs)
		m[layer+".busy_s"] = next.busy(l.emptyNs) + notify.busy(l.emptyNs)
		m[layer+".notify_calls"] = float64(notify.count)
		if next.count > 0 {
			m[layer+".offer_hit_ratio"] = t[layer+fHitsSuffix] / float64(next.count)
		}
		wrappedNs += float64(next.total + notify.total)
		wrappedCalls += float64(next.count + notify.count)
	}
	if t[fEvents] > 0 && t[fSimWorkerNs] > 0 {
		// On the traced passes: the simulator goroutines' time not spent
		// inside a wrapped call, nor in the wrappers' own clock reads, is the
		// cluster's own — event queue included. On front_door the
		// federation's own time (measured on the untraced twins of the same
		// passes; it already contains the routing calls) comes out too.
		outside := []*agg{decide, complete}
		if fedSelf == 0 {
			outside = append(outside, route)
		}
		for _, a := range outside {
			wrappedNs += float64(a.total)
			wrappedCalls += float64(a.count)
		}
		self := t[fSimWorkerNs] - wrappedNs - wrappedCalls*(l.pairNs-l.emptyNs) - fedSelf
		m["cluster.self_ns_per_event"] = math.Max(0, self/t[fSimWorkerNs]) * t.ratio(fSimNs, fEvents)
	}

	hb := l.agg(aggHeartbeat)
	m["live.heartbeats_per_s"] = p.ratio(fBeats, fLiveNs) * 1e9
	m["live.heartbeat_ns_p50"] = hb.quantile(0.5)
	m["live.heartbeat_ns_p99"] = hb.quantile(0.99)
	m["live.assignments_per_refill"] = p.ratio(fAssignments, fRefills)

	m["model.deadline_miss_ratio"] = p.ratio(fMisses, fResolved)
	for k := range p {
		if sched, ok := strings.CutPrefix(k, fMissPrefix); ok {
			m[missRatioPrefix+sched] = p.ratio(k, fCellWfPrefix+sched)
		}
	}

	if p[fWallNs] > 0 {
		// Every untraced pass has exactly one traced twin.
		m["trace.overhead_ratio"] = t[fWallNs]/p[fWallNs] - 1
	}
	if l.digestsMatch {
		m["trace.digest_match"] = 1
	}
	m["trace.timer_pair_ns"] = l.pairNs

	for k, v := range l.extras {
		m[k] = v
	}
	for k, v := range l.host {
		m[k] = v
	}
	return m
}
