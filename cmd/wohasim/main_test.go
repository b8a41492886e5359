package main

import (
	"context"
	"os"
	"path/filepath"
	"regexp"
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
		if err := runLive(writeXML(t), "FIFO", 4, 2, 1, shards, 0.00005, nil, planOpts{workers: 1}.shared(nil), nil, admissionOpts{}); err != nil {
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
