package planner

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/oracle"
	"repro/internal/priority"
	"repro/internal/simtime"
	"repro/internal/workflow"
	"repro/internal/workload"
)

// TestKeyMatchesOldKey holds the struct key to the sha256 walk it replaced
// (oracle.PlanKey): over every pair of (workflow, request shape) drawn from
// the Yahoo corpus under seeds 1–8, Fig 7 and a set of constructed near
// misses, two requests have equal struct keys and equal job orderings
// exactly when their old keys, taken with the ordering in place of the
// policy name, were equal. The near misses make sure both outcomes are
// exercised.
func TestKeyMatchesOldKey(t *testing.T) {
	var flows []*workflow.Workflow
	for seed := int64(1); seed <= 8; seed++ {
		cfg := workload.DefaultYahooConfig()
		cfg.Seed = seed
		y, err := workload.Yahoo(cfg)
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, y...)
	}
	fig7 := workload.Fig7("fig7", 1.0, simtime.Epoch, simtime.Epoch.Add(45*time.Minute))
	flows = append(flows, fig7)

	edited := func(name string, edit func(w *workflow.Workflow)) *workflow.Workflow {
		w := fig7.Clone()
		w.Name = name
		edit(w)
		if err := w.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return w
	}
	last := len(fig7.Jobs) - 1
	same := []*workflow.Workflow{
		edited("renamed copy", func(w *workflow.Workflow) { w.Jobs[0].Name = "renamed" }),
		workload.Recur(fig7, 3, time.Hour)[2], // recurring instance, release shifted
		edited("prerequisites in another order", func(w *workflow.Workflow) {
			for i := range w.Jobs {
				pre := w.Jobs[i].Prereqs
				for a, b := 0, len(pre)-1; a < b; a, b = a+1, b-1 {
					pre[a], pre[b] = pre[b], pre[a]
				}
			}
		}),
	}
	differ := []*workflow.Workflow{
		edited("one duration off by 1 ns", func(w *workflow.Workflow) { w.Jobs[last/2].MapTime++ }),
		edited("one prerequisite moved", func(w *workflow.Workflow) {
			// The last job trades its first prerequisite for an earlier job
			// it did not depend on.
			for p := workflow.JobID(0); ; p++ {
				if !slices.Contains(w.Jobs[last].Prereqs, p) {
					w.Jobs[last].Prereqs[0] = p
					return
				}
			}
		}),
		edited("deadline off by 1 ns", func(w *workflow.Workflow) { w.Deadline++ }),
	}
	flows = append(flows, same...)
	flows = append(flows, differ...)

	type request struct {
		variant          byte
		capMaps, capReds int
		margin           float64
		policy           string
	}
	requests := []request{
		{variantTyped, 300, 180, 0.85, "HLF"},
		{variantTyped, 300, 180, 0.85, "LPF"},
		{variantTyped, 300, 180, 1, "HLF"},
		{variantTyped, 180, 300, 0.85, "HLF"},
		{1, 480, 0, 0.85, "HLF"}, // the retired single-pool variant's byte
		{3, 480, 0, 1, "HLF"},    // the retired fixed-cap estimate's byte
	}
	type planned struct {
		key      cacheKey
		ordering string
	}
	type item struct {
		what string
		now  planned
		old  [32]byte
	}
	var items []item
	for _, w := range flows {
		for _, r := range requests {
			pol, err := priority.ByName(r.policy)
			if err != nil {
				t.Fatal(err)
			}
			ranks, err := pol.Rank(w)
			if err != nil {
				t.Fatal(err)
			}
			ordering := fmt.Sprint(ranks)
			items = append(items, item{
				what: w.Name,
				now:  planned{keyFor(w, r.variant, r.capMaps, r.capReds, r.margin), ordering},
				old:  oracle.PlanKey(w, r.variant, r.capMaps, r.capReds, r.margin, ordering),
			})
		}
	}
	equal := 0
	for i := range items {
		for j := i + 1; j < len(items); j++ {
			now, old := items[i].now == items[j].now, items[i].old == items[j].old
			if now != old {
				t.Fatalf("%s vs %s (requests %d, %d): struct keys equal = %v, sha256 keys equal = %v",
					items[i].what, items[j].what, i%len(requests), j%len(requests), now, old)
			}
			if now {
				equal++
			}
		}
	}
	// Fig 7 and its three look-alikes collide under each request: 6 pairs × 6.
	if want := 6 * len(requests); equal < want {
		t.Errorf("%d equal pairs, want at least the %d constructed ones", equal, want)
	}
	for _, w := range differ {
		if keyFor(w, variantTyped, 300, 180, 0.85) == keyFor(fig7, variantTyped, 300, 180, 0.85) {
			t.Errorf("%s shares Fig 7's key", w.Name)
		}
	}
}
