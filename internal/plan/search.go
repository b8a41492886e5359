package plan

// Probe runs one Algorithm 1 simulation at a candidate resource cap and
// reports the only thing the bisection reads: whether the makespan at that
// cap is within the search target. The target is the probe's own business —
// it is the limit the simulation stops at — so a probe that misses it never
// runs to completion and builds nothing. A probe that meets it swaps the raw
// schedule of its run into keep (probes that record nothing ignore keep;
// callers of such probes may pass nil). Probes are pure: the same cap always
// yields the same answer and the same schedule.
type Probe func(cap int, keep *Schedule) (within bool, err error)

// SequentialSearch executes the resource-cap bisection of Section IV-A over
// the interval [lo, hi], one probe at a time, and reports how many probes
// ran. best is the cap settled, 0 when no probed cap met the target (the
// caller falls back to the cap it already knows, hi). Every probe gets into
// as its keep: on this walk a probe that meets the target is the new best, so
// one buffer, overwritten by each new best, is all the search holds. On
// return into holds the schedule of best's probe; it is left untouched when
// best is 0, so a caller pre-loads it with its fallback. A probe error aborts
// the search.
func SequentialSearch(lo, hi int, probe Probe, into *Schedule) (best, probes int, err error) {
	for lo < hi {
		mid := lo + (hi-lo)/2
		within, err := probe(mid, into)
		if err != nil {
			return 0, probes, err
		}
		probes++
		if within {
			best, hi = mid, mid
		} else {
			lo = mid + 1
		}
	}
	return best, probes, nil
}
