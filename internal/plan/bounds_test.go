package plan

import (
	"strings"
	"testing"
	"time"

	"repro/internal/workflow"
)

// CheckCapBounds runs w under ranks at every cap of both ladders over cluster
// and demands lower ≤ makespan ≤ upper wherever the bounds apply, which for
// a valid workflow is everywhere.
func CheckCapBounds(t testing.TB, what string, w *workflow.Workflow, ranks []int, cluster Caps) {
	t.Helper()
	k, err := Bind(w, ranks)
	if err != nil {
		t.Fatal(err)
	}
	defer k.Release()
	for _, l := range []Ladder{
		{Lo: 2, Hi: cluster.Total(), Typed: true, Cluster: cluster},
		{Lo: 1, Hi: cluster.Total()},
	} {
		for c := l.Lo; c <= l.Hi; c++ {
			lower, upper, ok := k.boundsAt(l, c)
			if !ok {
				t.Fatalf("%s typed=%v cap %d: no bounds for a valid workflow", what, l.Typed, c)
			}
			var s Searched
			ms, _, err := k.probe(l, c, Unlimited, false, &s)
			if err != nil {
				t.Fatal(err)
			}
			if lower > ms || ms > upper {
				t.Fatalf("%s typed=%v cap %d: makespan %v outside the bounds [%v, %v]", what, l.Typed, c, ms, lower, upper)
			}
		}
	}
}

// TestBoundsSkipInvalidTables checks that a job table the bounds do not hold
// for is simulated as it would be without them: a cycle gets no bounds, and
// the search reports the run's error instead of answering from a bound.
func TestBoundsSkipInvalidTables(t *testing.T) {
	w := &workflow.Workflow{Name: "cycle", Jobs: []workflow.Job{
		{ID: 0, Name: "a", Maps: 2, Reduces: 1, MapTime: time.Second, ReduceTime: time.Second, Prereqs: []workflow.JobID{1}},
		{ID: 1, Name: "b", Maps: 2, Reduces: 1, MapTime: time.Second, ReduceTime: time.Second, Prereqs: []workflow.JobID{0}},
	}}
	k, err := Bind(w, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Release()
	if _, _, ok := k.BoundsTyped(Caps{Maps: 4, Reduces: 4}); ok {
		t.Error("bounds offered for a cyclic job table")
	}
	_, err = k.Search(Ladder{Lo: 2, Hi: 8, Typed: true, Cluster: Caps{Maps: 4, Reduces: 4}}, 1, time.Hour)
	if err == nil || !strings.Contains(err.Error(), "never fully scheduled") {
		t.Errorf("search over a cyclic table: error %v, want the run's unscheduled-job error", err)
	}
}
