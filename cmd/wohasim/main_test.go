package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	woha "repro"
)

const simXML = `<workflow name="w" deadline="30m">
  <job name="a" maps="8" reduces="2" map-time="20s" reduce-time="1m"><output>/s</output></job>
  <job name="b" maps="4" reduces="1" map-time="20s" reduce-time="1m"><input>/s</input></job>
</workflow>`

func writeXML(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "w.xml")
	if err := os.WriteFile(path, []byte(simXML), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func clusterCfg() woha.ClusterConfig {
	return woha.ClusterConfig{Nodes: 4, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1, Seed: 1}
}

func TestRunXMLWorkload(t *testing.T) {
	timeline := filepath.Join(t.TempDir(), "tl.csv")
	if err := run(writeXML(t), "WOHA-LPF", clusterCfg(), timeline, nil, planOpts{workers: 1}.shared(nil), nil, admissionOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(timeline); err != nil {
		t.Errorf("timeline not written: %v", err)
	}
}

func TestRunXMLWorkloadParallelCachedPlans(t *testing.T) {
	// Same workload through the parallel, cached planner path.
	if err := run(writeXML(t), "WOHA-LPF", clusterCfg(), "", nil, planOpts{workers: 4, cache: 32}.shared(nil), nil, admissionOpts{}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("/nonexistent.xml", "WOHA-LPF", clusterCfg(), "", nil, planOpts{}.shared(nil), nil, admissionOpts{}); err == nil {
		t.Error("missing workload accepted")
	}
	if err := run(writeXML(t), "Mystery", clusterCfg(), "", nil, planOpts{}.shared(nil), nil, admissionOpts{}); err == nil {
		t.Error("unknown scheduler accepted")
	}
}

func TestRunLiveXMLWorkload(t *testing.T) {
	// Run the XML workload on the live mini-Hadoop at a steep compression,
	// at one shard and at two.
	for _, shards := range []int{1, 2} {
		start := time.Now()
		if err := runLive(writeXML(t), "FIFO", clusterCfg(), shards, 0.00005, nil, planOpts{workers: 1}.shared(nil), nil, admissionOpts{}); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if time.Since(start) > 20*time.Second {
			t.Errorf("shards=%d: live run took %v", shards, time.Since(start))
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	// -metrics-addr :0 equivalent: serve on an ephemeral port, run an
	// instrumented simulation, then scrape the endpoint over real HTTP.
	reg := woha.NewMetrics()
	ins := woha.NewInstrumentation(reg, nil)
	ins.EnableHealth(woha.HealthConfig{})
	srv, err := woha.ServeIntrospection("127.0.0.1:0", ins)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	if err := run(writeXML(t), "WOHA-LPF", clusterCfg(), "", ins, planOpts{workers: 2, cache: 8}.shared(ins), nil, admissionOpts{}); err != nil {
		t.Fatal(err)
	}

	var buf strings.Builder
	if err := srv.DumpMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	scrape := buf.String()
	for _, name := range []string{
		"woha_heartbeat_duration_seconds",
		"woha_tasks_assigned_total",
		"woha_workflows_deadline_missed_total",
		"woha_planner_plans_total",
		"woha_planner_cache_misses_total",
		"woha_build_info",
		"woha_health_min_slack_tasks",
	} {
		if !strings.Contains(scrape, name) {
			t.Errorf("scrape missing %s", name)
		}
	}
	// The run assigned tasks, so the counter must be non-zero.
	if !regexp.MustCompile(`(?m)^woha_tasks_assigned_total [1-9]`).MatchString(scrape) {
		t.Errorf("woha_tasks_assigned_total not incremented:\n%s", scrape)
	}
	if !strings.Contains(scrape, "# TYPE woha_heartbeat_duration_seconds histogram") {
		t.Errorf("heartbeat histogram TYPE line missing:\n%s", scrape)
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

// TestEveryPathPlansOnceAndExportsSchedulerSeries runs fig7 under WOHA-LPF
// down each instrumented path — the single cluster, -live, -clusters 2, and
// the single cluster with -postmortem — at the default -plan-cache 0. Each
// must export the WOHA queue series, one woha_plans_generated_total per
// workflow, and one planner request per workflow: the postmortem records the
// plans the run is submitted with instead of planning a second time.
func TestEveryPathPlansOnceAndExportsSchedulerSeries(t *testing.T) {
	cfg := woha.ClusterConfig{Nodes: 32, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1, Seed: 1}
	flows, err := buildWorkload("fig7")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		run  func(ins *woha.Instrumentation, pl *woha.Planner, pm *postmortemCapture) error
		pm   bool
	}{
		{"run", func(ins *woha.Instrumentation, pl *woha.Planner, _ *postmortemCapture) error {
			return run("fig7", "WOHA-LPF", cfg, "", ins, pl, nil, admissionOpts{})
		}, false},
		{"runLive", func(ins *woha.Instrumentation, pl *woha.Planner, _ *postmortemCapture) error {
			return runLive("fig7", "WOHA-LPF", cfg, 2, 0.00005, ins, pl, nil, admissionOpts{})
		}, false},
		{"runFederation", func(ins *woha.Instrumentation, pl *woha.Planner, _ *postmortemCapture) error {
			return runFederation("fig7", "WOHA-LPF", cfg, 2, "slack", 0, ins, pl)
		}, false},
		{"run -postmortem", func(ins *woha.Instrumentation, pl *woha.Planner, pm *postmortemCapture) error {
			if err := run("fig7", "WOHA-LPF", cfg, "", ins, pl, pm, admissionOpts{}); err != nil {
				return err
			}
			return pm.write(io.Discard)
		}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reg := woha.NewMetrics()
			ring := woha.NewEventRing(1 << 16)
			ins := woha.NewInstrumentation(reg, ring)
			var pm *postmortemCapture
			if c.pm {
				pm = &postmortemCapture{path: filepath.Join(t.TempDir(), "pm.json"), ring: ring}
			}
			if err := c.run(ins, planOpts{workers: 1}.shared(ins), pm); err != nil {
				t.Fatal(err)
			}
			var buf strings.Builder
			if _, err := reg.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			scrape := buf.String()
			if n := scrapeValue(scrape, `woha_queue_inserts_total{queue="DSL"}`); n <= 0 {
				t.Errorf(`woha_queue_inserts_total{queue="DSL"} = %d, want > 0`, n)
			}
			for _, series := range []string{"woha_plans_generated_total", "woha_planner_plans_total"} {
				if n := scrapeValue(scrape, series); n != int64(len(flows)) {
					t.Errorf("%s = %d, want one per workflow (%d)", series, n, len(flows))
				}
			}
			if pm != nil && len(pm.specs) != len(flows) {
				t.Errorf("postmortem recorded %d specs, want %d", len(pm.specs), len(flows))
			}
		})
	}
}
