package planner

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/priority"
	"repro/internal/simtime"
	"repro/internal/workflow"
	"repro/internal/workload"
)

// TestCoalescingExactlyOnce hammers one shared planner with many goroutines
// that all want the same structural keys at the same instant — renamed,
// time-shifted instances of a few DAG shapes, exactly what concurrent runner
// cells submit. Run under -race (make verify does) this pins the shared
// planner's exactly-once contract:
//
//   - each distinct key is simulated once: CacheMisses equals the key count
//     and exactly that many returned plans carry SearchIters > 0;
//   - every other request is a cache hit or a coalesced wait, never a second
//     generation: hits + coalesced = requests - keys;
//   - all plans for a key are byte-identical to the seed generator's.
func TestCoalescingExactlyOnce(t *testing.T) {
	const (
		goroutines = 24
		shapes     = 3
		rounds     = 4
	)
	o := obs.New(obs.NewRegistry(), nil)
	pl := New(Config{CacheSize: 64, Obs: o})
	pol := priority.HLF{}

	// Per-goroutine renamed instances: same shape, different names and
	// submit/deadline instants, so collisions are structural, not pointer
	// identity.
	mk := func(g, shape int) *workflow.Workflow {
		shift := time.Duration(g) * time.Minute
		return workflow.NewBuilder(fmt.Sprintf("g%d-s%d", g, shape)).
			Job("extract", 40+10*shape, 8, 30*time.Second, 60*time.Second).
			Job("load", 20, 4, 20*time.Second, 45*time.Second, "extract").
			MustBuild(simtime.Epoch.Add(shift), simtime.Epoch.Add(shift+2*time.Hour))
	}
	want := make([][]byte, shapes)
	for s := 0; s < shapes; s++ {
		p, err := plan.GenerateCappedTyped(mk(0, s), testCluster, pol, DefaultMargin)
		if err != nil {
			t.Fatalf("GenerateCappedTyped: %v", err)
		}
		want[s] = p.Encode()
	}

	type res struct {
		shape int
		iters int
		enc   []byte
	}
	results := make(chan res, goroutines*shapes*rounds)
	errs := make(chan error, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for r := 0; r < rounds; r++ {
				for s := 0; s < shapes; s++ {
					p, err := pl.Plan(mk(g, s), testCluster, pol)
					if err != nil {
						errs <- err
						return
					}
					results <- res{shape: s, iters: p.SearchIters, enc: p.Encode()}
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	close(results)
	close(errs)
	for err := range errs {
		t.Fatalf("Plan: %v", err)
	}

	generated := 0
	for r := range results {
		if r.iters > 0 {
			generated++
		}
		if !bytes.Equal(r.enc, want[r.shape]) {
			t.Errorf("shape %d: plan differs from the seed generator's", r.shape)
		}
	}
	if generated != shapes {
		t.Errorf("plans with SearchIters > 0 = %d, want %d (one generation per key)", generated, shapes)
	}

	st := pl.Stats()
	requests := int64(goroutines * shapes * rounds)
	if got := st.Plans.Value(); got != requests {
		t.Errorf("Plans = %d, want %d", got, requests)
	}
	if got := st.CacheMisses.Value(); got != shapes {
		t.Errorf("CacheMisses = %d, want %d (each key simulated exactly once)", got, shapes)
	}
	if got := st.CacheHits.Value() + st.Coalesced.Value(); got != requests-shapes {
		t.Errorf("CacheHits %d + Coalesced %d = %d, want %d",
			st.CacheHits.Value(), st.Coalesced.Value(), got, requests-shapes)
	}
	if got := st.Inflight.Value(); got != 0 {
		t.Errorf("Inflight = %d after the hammer, want 0", got)
	}
	if got := pl.CacheLen(); got != shapes {
		t.Errorf("CacheLen = %d, want %d", got, shapes)
	}
}

// TestCoalescingWithoutCache pins coalescing in isolation: with the cache
// disabled, requests that overlap an in-flight generation still coalesce
// onto it, so the one key is generated once — CacheMisses is 1 — and nothing
// stays in the table afterwards. The leader's ranking is held at a gate
// while the other requests start; a request that only arrived after the
// flight settled generates again (there is no cache to hit), and then the
// whole thing is retried on a fresh planner.
func TestCoalescingWithoutCache(t *testing.T) {
	const goroutines = 16
	w := workload.Fig7("w", 1.0, simtime.Epoch, simtime.Epoch.Add(time.Hour))
	for attempt := 0; attempt < 50; attempt++ {
		pl := New(Config{Obs: obs.New(obs.NewRegistry(), nil)})
		pol := &gated{gate: make(chan struct{})}
		errs := make(chan error, goroutines)
		var wg sync.WaitGroup
		request := func() {
			defer wg.Done()
			_, err := pl.Plan(w, testCluster, pol)
			errs <- err
		}
		wg.Add(goroutines)
		go request()
		for pol.calls.Load() == 0 {
			runtime.Gosched()
		}
		for g := 1; g < goroutines; g++ {
			go request()
		}
		for i := 0; i < 1000; i++ {
			runtime.Gosched()
		}
		close(pol.gate)
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatalf("Plan: %v", err)
			}
		}

		st := pl.Stats()
		coalesced, misses := st.Coalesced.Value(), st.CacheMisses.Value()
		if coalesced+misses != goroutines {
			t.Fatalf("Coalesced %d + misses %d = %d, want %d", coalesced, misses, coalesced+misses, goroutines)
		}
		if got := pl.CacheLen(); got != 0 {
			t.Fatalf("CacheLen = %d without a cache, want 0", got)
		}
		if misses == 1 {
			return
		}
		t.Logf("attempt %d: %d requests -> %d generations, %d coalesced; retrying", attempt, goroutines, misses, coalesced)
	}
	t.Fatal("CacheMisses never came to 1 for the one key in 50 attempts: overlapping requests do not coalesce")
}

// TestCoalescedErrorPropagates checks that a failed generation reaches every
// waiter that coalesced onto it, and that the failure is not cached — a later
// request retries the generation.
func TestCoalescedErrorPropagates(t *testing.T) {
	o := obs.New(obs.NewRegistry(), nil)
	pl := New(Config{CacheSize: 8, Obs: o})
	w := workload.Fig7("w", 1.0, simtime.Epoch, simtime.Epoch.Add(time.Hour))
	// Zero reduce caps are rejected by the typed generator.
	bad := plan.Caps{Maps: 10, Reduces: 0}

	const goroutines = 8
	start := make(chan struct{})
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, err := pl.Plan(w, bad, priority.HLF{})
			errs <- err
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err == nil {
			t.Fatal("Plan with zero reduce caps: want error, got nil")
		}
	}
	if got := pl.CacheLen(); got != 0 {
		t.Errorf("CacheLen = %d after failed generations, want 0 (failures are not cached)", got)
	}
	if _, err := pl.Plan(w, bad, priority.HLF{}); err == nil {
		t.Fatal("retry after failed flight: want error, got nil")
	}
}
