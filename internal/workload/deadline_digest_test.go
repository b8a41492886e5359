package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/planner"
)

// Every benchmark corpus is generated through estimate, so the deadlines
// Yahoo assigns must not move when the estimate's implementation does. These
// digests were taken from the commit before estimate stopped building plans
// (0fb00d6) and cover seeds 1-8 of both deadline schemes: sha256 over every
// workflow's (release, deadline) pair in generation order.
var deadlineDigests = map[DeadlineScheme]string{
	DeadlineSLA:     "0756e3478dbaa3860ffb002797b870eb63616ff656b8525b7d2f0d963e4ca5f2",
	DeadlineStretch: "60d4fe5665ced8b8de43636f31f54c741fa7674c710954a59dc1d8d4bbe41923",
}

func deadlineDigest(t *testing.T, scheme DeadlineScheme, pl Estimator) string {
	t.Helper()
	h := sha256.New()
	var buf [16]byte
	for seed := int64(1); seed <= 8; seed++ {
		cfg := DefaultYahooConfig()
		cfg.Seed = seed
		cfg.Scheme = scheme
		cfg.Planner = pl
		flows, err := Yahoo(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range flows {
			binary.LittleEndian.PutUint64(buf[:8], uint64(w.Release))
			binary.LittleEndian.PutUint64(buf[8:], uint64(w.Deadline))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestYahooDeadlinesPinned checks the committed digests on both estimate
// paths — the seed path (no Planner, one makespan-only kernel run) and the
// Planner path (cached full plans) — which therefore also equal each other.
func TestYahooDeadlinesPinned(t *testing.T) {
	for scheme, want := range deadlineDigests {
		if got := deadlineDigest(t, scheme, nil); got != want {
			t.Errorf("scheme %v without a Planner: deadline digest %s, want %s", scheme, got, want)
		}
		pl := planner.New(planner.Config{CacheSize: 1024})
		if got := deadlineDigest(t, scheme, pl); got != want {
			t.Errorf("scheme %v with a Planner: deadline digest %s, want %s", scheme, got, want)
		}
	}
}
