package experiments

import (
	"reflect"
	"testing"

	"repro/internal/workload"
)

// TestAdmissionSweep runs a reduced rejected-vs-missed sweep twice and checks
// the structural invariants: one point per cluster size, every workflow either
// admitted or rejected at every size, no more counter-offers than rejections,
// ratios in range, and identical points across runs. It does not assert that
// admitted workflows never miss; over seeds they occasionally do (the
// benchmark's admission.admitted_miss_ratio).
func TestAdmissionSweep(t *testing.T) {
	cfg := DefaultAdmissionSweepConfig()
	cfg.Yahoo.Workflows = 40
	cfg.Yahoo.Jobs = 140
	cfg.Sizes = []int{120, 40}

	res, err := AdmissionSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(cfg.Sizes) {
		t.Fatalf("%d points, want %d", len(res.Points), len(cfg.Sizes))
	}
	flows, err := workload.Yahoo(cfg.Yahoo)
	if err != nil {
		t.Fatal(err)
	}
	population := len(workload.MultiJob(flows))
	rejected := 0
	for i, p := range res.Points {
		if p.Size != cfg.Sizes[i] {
			t.Errorf("point %d size %d, want %d", i, p.Size, cfg.Sizes[i])
		}
		if p.Admitted+p.Rejected != population {
			t.Errorf("point %d: admitted %d + rejected %d != population %d", i, p.Admitted, p.Rejected, population)
		}
		if p.CounterOffers > p.Rejected {
			t.Errorf("point %d: %d counter-offers for %d rejections", i, p.CounterOffers, p.Rejected)
		}
		for name, v := range map[string]float64{"always-miss": p.AlwaysMiss, "admitted-miss": p.AdmittedMiss, "overall-miss": p.OverallMiss} {
			if v < 0 || v > 1 {
				t.Errorf("point %d: %s ratio %v out of [0, 1]", i, name, v)
			}
		}
		// A rejection counts as a miss from the submitter's side.
		if share := float64(p.Rejected) / float64(population); p.OverallMiss < share {
			t.Errorf("point %d: overall miss %v below the rejected share %v", i, p.OverallMiss, share)
		}
		rejected += p.Rejected
	}
	if rejected == 0 {
		t.Error("no size rejected anything: the reduced config never reaches overload, so the gated cells test nothing")
	}

	again, err := AdmissionSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Points, again.Points) {
		t.Errorf("sweep is not deterministic:\nfirst  %+v\nsecond %+v", res.Points, again.Points)
	}

	if rows := res.Table().Rows; len(rows) != len(res.Points) {
		t.Errorf("table has %d rows, want %d", len(rows), len(res.Points))
	}
}
