package plan

import (
	"time"

	"repro/internal/simtime"
)

// Ladder is the set of caps a cap search walks: the total caps in [Lo, Hi].
// A typed ladder runs total c on TypedCapsFor(Cluster, c); a single-pool
// ladder runs it as one fungible pool of c slots.
type Ladder struct {
	Lo, Hi  int
	Typed   bool
	Cluster Caps // typed only: the pools a total cap is sliced from
}

// Searched is what a cap search settles.
type Searched struct {
	// Cap is the smallest cap of the ladder whose makespan meets the
	// target, or Hi when none below it does.
	Cap int
	// Makespan is the makespan at Cap. It exceeds the deadline only when
	// the whole cluster misses it; Cap is Hi then, and no smaller cap was
	// asked about.
	Makespan time.Duration
	// Questions counts the bisection's steps and Cut those answered "no";
	// Simulations counts the runs the search made, the whole-cluster run
	// included.
	Questions, Cut, Simulations int
}

// Search runs the resource-cap search of Section IV-A on the bound workflow
// and reports the cap it settles, simulating nothing it can answer from the
// makespan bounds. The target is margin × deadline; a whole cluster that
// misses it but meets the deadline searches against the deadline instead,
// and one that misses the deadline is the answer, infeasible.
//
// The bisection asks the caps plain bisection asks, in the same order, and
// gets the same answers: "no" when the lower bound exceeds the target, "yes"
// when the upper bound meets it, and a run stopped at the target otherwise.
// A winner a bound decided is simulated once at the end, so Makespan is
// always exact. The whole cluster is simulated first only when its upper
// bound does not already meet margin × deadline; otherwise only if no smaller
// cap meets the target.
func (k *Kernel) Search(l Ladder, margin float64, deadline time.Duration) (Searched, error) {
	return k.search(l, margin, deadline, false)
}

// search is Search; with record set every run records, and on return k.won
// holds the raw requirement list of Cap's run.
func (k *Kernel) search(l Ladder, margin float64, deadline time.Duration, record bool) (Searched, error) {
	s := Searched{Cap: l.Hi}
	target := time.Duration(margin * float64(deadline))
	fullRun := false
	if _, upper, ok := k.boundsAt(l, l.Hi); !ok || upper > target {
		full, _, err := k.probe(l, l.Hi, Unlimited, record, &s)
		if err != nil {
			return s, err
		}
		fullRun, s.Makespan = true, full
		if full > deadline {
			return s, nil
		}
		// A whole cluster that misses the margin target retries against the
		// real deadline: a plan capped for the actual deadline demands far
		// less than the full-cluster plan and keeps the workflow from
		// poisoning the priority queue with an unearned maximal lag. Only a
		// genuinely infeasible workflow keeps the best-effort full plan.
		if full > target {
			target = deadline
		}
	}
	// settled: best's makespan is in s.Makespan and, recording, its raw
	// list in k.won. On this walk every "yes" is the new best.
	best, settled := 0, false
	for lo, hi := l.Lo, l.Hi; lo < hi; {
		mid := lo + (hi-lo)/2
		s.Questions++
		lower, upper, ok := k.boundsAt(l, mid)
		within, simulated := ok && upper <= target, false
		if !ok || (lower <= target && upper > target) {
			ms, w, err := k.probe(l, mid, target, record, &s)
			if err != nil {
				return s, err
			}
			within, simulated = w, true
			if within {
				s.Makespan = ms
			}
		}
		if within {
			best, settled, hi = mid, simulated, mid
		} else {
			s.Cut++
			lo = mid + 1
		}
	}
	switch {
	case best != 0:
		s.Cap = best
		if !settled {
			ms, _, err := k.probe(l, best, target, record, &s)
			if err != nil {
				return s, err
			}
			s.Makespan = ms
		}
	case !fullRun:
		ms, _, err := k.probe(l, l.Hi, Unlimited, record, &s)
		if err != nil {
			return s, err
		}
		s.Makespan = ms
	}
	return s, nil
}

// probe is one run of a search at total cap c, stopped at limit and counted
// in s. A recorded run that meets limit swaps its raw list into k.won.
func (k *Kernel) probe(l Ladder, c int, limit time.Duration, record bool, s *Searched) (time.Duration, bool, error) {
	s.Simulations++
	var end simtime.Time
	var within bool
	var err error
	if l.Typed {
		end, within, err = k.runTyped(TypedCapsFor(l.Cluster, c), simtime.Epoch.Add(limit), record)
	} else {
		end, within, err = k.runSingle(c, simtime.Epoch.Add(limit), record)
	}
	if within && record {
		k.raw, k.won = k.won, k.raw
	}
	return end.Duration(), within, err
}

// boundsAt is bounds at total cap c of l.
func (k *Kernel) boundsAt(l Ladder, c int) (lower, upper time.Duration, ok bool) {
	if l.Typed {
		return k.BoundsTyped(TypedCapsFor(l.Cluster, c))
	}
	return k.bounds([2]int{c, 0}, 0)
}

// BoundsTyped brackets the makespan MakespanTyped would report at caps
// without simulating: lower ≤ makespan ≤ upper. ok is false when the job
// table is invalid or not a DAG, or when caps leave a needed pool empty;
// MakespanTyped is then the only answer.
func (k *Kernel) BoundsTyped(caps Caps) (lower, upper time.Duration, ok bool) {
	return k.bounds([2]int{caps.Maps, caps.Reduces}, 1)
}
