package obs

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestIntrospectionEndpoints(t *testing.T) {
	o := New(NewRegistry(), nil)
	h := o.EnableHealth(HealthConfig{Interval: 10 * time.Second})
	h.Register(0, "w0", 0, sec(200), 10, healthPlan())
	h.SetSlots(8, 4)
	o.WorkflowSubmitted(0, 0, "w0")
	o.TaskAssigned(sec(1), 0, 0, 0, 0, time.Second)
	o.TaskCompleted(sec(2), 0, 0, 0, 0)
	h.SnapshotAt(sec(120))

	srv, err := ServeIntrospection("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	base := "http://" + srv.Addr()

	if code, body := getBody(t, base+"/metrics"); code != http.StatusOK || !strings.Contains(body, declared(t, "woha_health_min_slack_tasks")) {
		t.Errorf("/metrics: code %d, health gauge missing", code)
	}
	code, body := getBody(t, base+"/statusz")
	if code != http.StatusOK {
		t.Fatalf("/statusz: code %d", code)
	}
	var st Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/statusz is not JSON: %v\n%s", err, body)
	}
	if st.WorkflowsSubmitted != 1 || st.TasksAssigned != 1 || st.TasksCompleted != 1 {
		t.Errorf("statusz counters = %+v", st)
	}
	if st.GoVersion == "" || st.StalenessUS != (10*time.Second).Microseconds() {
		t.Errorf("statusz identity/staleness = %+v", st)
	}
	if st.Health == nil || len(st.Health.Workflows) != 1 || st.Health.MapSlots != 8 {
		t.Fatalf("statusz health block = %+v", st.Health)
	}
	if row := st.Health.Workflows[0]; !row.HasPlan || row.Slack != 1-2 {
		t.Errorf("statusz slack row = %+v, want slack -1", row)
	}
	if code, body := getBody(t, base+"/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/: code %d", code)
	}
	if code, _ := getBody(t, base+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline: code %d", code)
	}
}

// TestIntrospectionShutdownClosesListener pins the graceful-shutdown
// contract: after Shutdown returns, the port no longer accepts connections.
func TestIntrospectionShutdownClosesListener(t *testing.T) {
	srv, err := ServeIntrospection("127.0.0.1:0", New(NewRegistry(), nil))
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	if code, _ := getBody(t, "http://"+addr+"/statusz"); code != http.StatusOK {
		t.Fatalf("pre-shutdown statusz: code %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		conn.Close()
		t.Fatal("listener still accepting connections after Shutdown")
	}
}

// An events-only Obs (nil registry) still serves /statusz; /metrics 404s.
func TestIntrospectionWithoutRegistry(t *testing.T) {
	srv, err := ServeIntrospection("127.0.0.1:0", New(nil, NewRing(8)))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	if code, _ := getBody(t, "http://"+srv.Addr()+"/statusz"); code != http.StatusOK {
		t.Errorf("/statusz without registry: code %d", code)
	}
	if code, _ := getBody(t, "http://"+srv.Addr()+"/metrics"); code != http.StatusNotFound {
		t.Errorf("/metrics without registry: code %d, want 404", code)
	}
}

func TestIntrospectionNilServer(t *testing.T) {
	var s *IntrospectionServer
	if s.Addr() != "" {
		t.Error("nil Addr")
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Error("nil Shutdown errored")
	}
	if err := s.DumpMetrics(io.Discard); err != nil {
		t.Error("nil DumpMetrics errored")
	}
}
