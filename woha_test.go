package woha_test

import (
	"context"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	woha "repro"
)

func etl(t *testing.T, name string, deadline time.Duration) *woha.Workflow {
	t.Helper()
	return woha.NewWorkflow(name).
		Job("extract", 40, 8, 45*time.Second, 2*time.Minute).
		Job("clean", 20, 4, 30*time.Second, 90*time.Second, "extract").
		Job("aggregate", 20, 4, 30*time.Second, 3*time.Minute, "clean").
		MustBuild(0, woha.At(deadline))
}

func TestQuickstartFlow(t *testing.T) {
	sess, err := woha.NewSession(woha.ClusterConfig{
		Nodes: 10, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1,
	}, woha.SchedulerWOHALPF)
	if err != nil {
		t.Fatal(err)
	}
	w := etl(t, "etl", time.Hour)
	if err := sess.Submit(w); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workflows) != 1 || !res.Workflows[0].Met {
		t.Fatalf("workflow outcome: %+v", res.Workflows)
	}
	if res.Policy != "WOHA-LPF" {
		t.Errorf("Policy = %q", res.Policy)
	}
}

func TestEverySchedulerRuns(t *testing.T) {
	for _, sched := range woha.Schedulers() {
		sess, err := woha.NewSession(woha.ClusterConfig{
			Nodes: 4, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1,
		}, sched, woha.WithSeed(7))
		if err != nil {
			t.Fatalf("%s: %v", sched, err)
		}
		if err := sess.Submit(etl(t, "w", 2*time.Hour)); err != nil {
			t.Fatalf("%s: %v", sched, err)
		}
		res, err := sess.Run()
		if err != nil {
			t.Fatalf("%s: %v", sched, err)
		}
		if res.TasksStarted != 96 {
			t.Errorf("%s: started %d tasks, want 96", sched, res.TasksStarted)
		}
	}
}

func TestUnknownScheduler(t *testing.T) {
	_, err := woha.NewSession(woha.ClusterConfig{
		Nodes: 1, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1,
	}, woha.Scheduler("bogus"))
	if err == nil || !strings.Contains(err.Error(), "unknown scheduler") {
		t.Errorf("err = %v, want unknown-scheduler", err)
	}
}

func TestGeneratePlan(t *testing.T) {
	w := etl(t, "w", time.Hour)
	p, err := woha.GeneratePlan(w, 30, woha.LPF)
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalTasks != w.TotalTasks() || len(p.Reqs) == 0 {
		t.Errorf("plan = %+v", p)
	}
}

func TestXMLRoundTripThroughFacade(t *testing.T) {
	w := etl(t, "xmlflow", time.Hour)
	data, err := woha.MarshalWorkflowXML(w)
	if err != nil {
		t.Fatal(err)
	}
	back, err := woha.ParseWorkflowXML(strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != w.Name || len(back.Jobs) != len(w.Jobs) {
		t.Errorf("round trip: %+v", back)
	}
}

func TestTimelineObserver(t *testing.T) {
	tl := woha.NewTimeline()
	sess, err := woha.NewSession(woha.ClusterConfig{
		Nodes: 4, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1,
	}, woha.SchedulerFIFO, woha.WithObserver(tl))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(etl(t, "w", 2*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	if tl.Workflows() != 1 {
		t.Errorf("timeline saw %d workflows", tl.Workflows())
	}
	if got := tl.PeakConcurrency(woha.MapSlot); got == 0 || got > 8 {
		t.Errorf("map peak = %d", got)
	}
}

// roundRobin is a trivial custom Policy proving the pluggable-scheduler
// path works end to end.
type roundRobin struct {
	live []*woha.WorkflowState
	next int
}

func (r *roundRobin) Name() string { return "custom-rr" }

func (r *roundRobin) WorkflowAdded(ws *woha.WorkflowState, _ woha.Time) {
	r.live = append(r.live, ws)
}

func (r *roundRobin) JobActivated(*woha.WorkflowState, woha.JobID, woha.Time) {}

func (r *roundRobin) NextTask(_ woha.Time, st woha.SlotType) (*woha.WorkflowState, woha.JobID, bool) {
	for range r.live {
		ws := r.live[r.next%len(r.live)]
		r.next++
		if !ws.Done {
			for i := range ws.Jobs {
				if ws.Jobs[i].Schedulable(st) {
					return ws, woha.JobID(i), true
				}
			}
		}
	}
	return nil, 0, false
}

func (r *roundRobin) TaskStarted(*woha.WorkflowState, woha.JobID, woha.SlotType, woha.Time) {}

func (r *roundRobin) WorkflowCompleted(*woha.WorkflowState, woha.Time) {}

func TestCustomPolicyPlugsIn(t *testing.T) {
	sess, err := woha.NewSession(woha.ClusterConfig{
		Nodes: 4, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1,
	}, "", woha.WithPolicy(&roundRobin{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(etl(t, "a", 2*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(etl(t, "b", 2*time.Hour)); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "custom-rr" || res.TasksStarted != 192 {
		t.Errorf("res = %q %d", res.Policy, res.TasksStarted)
	}
}

func TestRunSeedsMatchesSessions(t *testing.T) {
	cfg := woha.ClusterConfig{
		Nodes: 10, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1, Noise: 0.2,
	}
	flows := []*woha.Workflow{etl(t, "a", time.Hour), etl(t, "b", 2*time.Hour)}
	seeds := []int64{3, 7, 11}

	parallel, err := woha.RunSeeds(cfg, woha.SchedulerWOHALPF, flows, seeds, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(parallel) != len(seeds) {
		t.Fatalf("got %d results, want %d", len(parallel), len(seeds))
	}
	// Each replica must match a one-off Session run at the same seed.
	for i, seed := range seeds {
		scfg := cfg
		scfg.Seed = seed
		sess, err := woha.NewSession(scfg, woha.SchedulerWOHALPF, woha.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.SubmitAll(flows); err != nil {
			t.Fatal(err)
		}
		want, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		got := parallel[i]
		if got.Makespan != want.Makespan || got.TasksStarted != want.TasksStarted ||
			len(got.Workflows) != len(want.Workflows) {
			t.Errorf("seed %d: replica (makespan %v, %d tasks) != session (makespan %v, %d tasks)",
				seed, got.Makespan, got.TasksStarted, want.Makespan, want.TasksStarted)
		}
		for j := range got.Workflows {
			if got.Workflows[j] != want.Workflows[j] {
				t.Errorf("seed %d: workflow %d differs: %+v vs %+v",
					seed, j, got.Workflows[j], want.Workflows[j])
			}
		}
	}
}

func TestRunSeedsRejectsPerRunOptions(t *testing.T) {
	cfg := woha.ClusterConfig{Nodes: 2, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1}
	flows := []*woha.Workflow{etl(t, "a", time.Hour)}
	if _, err := woha.RunSeeds(cfg, woha.SchedulerFIFO, flows, []int64{1}, 1,
		woha.WithObserver(woha.NewTimeline())); err == nil {
		t.Error("WithObserver accepted; replicas cannot share one observer")
	}
	if _, err := woha.RunSeeds(cfg, "bogus", flows, []int64{1}, 1); err == nil {
		t.Error("unknown scheduler accepted")
	}
}

// scrapeValue reads one sample of the Prometheus exposition scrape: the
// value of series (a metric name with its label set, if any), or -1 when the
// scrape lacks it.
func scrapeValue(scrape, series string) int64 {
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(series) + ` ([0-9]+)$`).FindStringSubmatch(scrape)
	if m == nil {
		return -1
	}
	n, _ := strconv.ParseInt(m[1], 10, 64)
	return n
}

// TestEveryEntryPointExportsSchedulerSeries runs one WOHA batch through each
// instrumented entry point of the facade: each must export the queue
// backend's woha_queue_* series and one woha_plans_generated_total per
// planned workflow, since all of them build the policy and plan through the
// same scheduler table.
func TestEveryEntryPointExportsSchedulerSeries(t *testing.T) {
	cfg := woha.ClusterConfig{Nodes: 4, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1}
	flows := []*woha.Workflow{etl(t, "a", 2*time.Hour), etl(t, "b", 3*time.Hour)}
	sessionRun := func(sess *woha.Session, err error) error {
		if err != nil {
			return err
		}
		if err := sess.SubmitAll(flows); err != nil {
			return err
		}
		_, err = sess.Run()
		return err
	}
	cases := []struct {
		name  string
		queue string
		run   func(ins *woha.Instrumentation) error
	}{
		{"Session", "DSL", func(ins *woha.Instrumentation) error {
			return sessionRun(woha.NewSession(cfg, woha.SchedulerWOHALPF, woha.WithInstrumentation(ins)))
		}},
		{"SessionFromConfig", "BST", func(ins *woha.Instrumentation) error {
			sc := &woha.SchedulerConfig{Scheduler: "WOHA", PlanGenerator: "LPF", Queue: "BST", PlanMargin: 0.85}
			return sessionRun(woha.NewSessionFromConfig(cfg, sc, woha.WithInstrumentation(ins)))
		}},
		{"LiveSession", "DSL", func(ins *woha.Instrumentation) error {
			sess, err := woha.NewLiveSession(liveCfg(), woha.SchedulerWOHALPF, false, woha.WithInstrumentation(ins))
			if err != nil {
				return err
			}
			for _, w := range flows {
				if err := sess.Submit(w); err != nil {
					return err
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_, err = sess.Run(ctx)
			return err
		}},
		{"RunSeeds", "DSL", func(ins *woha.Instrumentation) error {
			_, err := woha.RunSeeds(cfg, woha.SchedulerWOHALPF, flows, []int64{1, 2}, 2, woha.WithInstrumentation(ins))
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reg := woha.NewMetrics()
			if err := c.run(woha.NewInstrumentation(reg, nil)); err != nil {
				t.Fatal(err)
			}
			var buf strings.Builder
			if _, err := reg.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			scrape := buf.String()
			if n := scrapeValue(scrape, `woha_queue_inserts_total{queue="`+c.queue+`"}`); n <= 0 {
				t.Errorf("woha_queue_inserts_total{queue=%q} = %d, want > 0", c.queue, n)
			}
			if n := scrapeValue(scrape, "woha_plans_generated_total"); n != int64(len(flows)) {
				t.Errorf("woha_plans_generated_total = %d, want %d", n, len(flows))
			}
		})
	}
}
