package plan

// Probe runs one Algorithm 1 simulation at a candidate resource cap and
// reports the only thing the bisection reads: whether the makespan at that
// cap is within the search target. The target is the probe's own business —
// it is the limit the simulation stops at — so a probe that misses it never
// runs to completion and builds nothing. A probe that meets it swaps the raw
// schedule of its run into keep (probes that record nothing ignore keep;
// callers of such probes may pass nil). Probes are pure: the same cap always
// yields the same answer and the same schedule. Invocations with distinct
// keeps may run concurrently.
type Probe func(cap int, keep *Schedule) (within bool, err error)

// CapSearcher executes the resource-cap bisection of Section IV-A over the
// interval [lo, hi]: settle the cap the sequential binary search settles on,
// probing caps as needed, and report how many probes actually ran. best is
// the cap settled, 0 when no probed cap met the target (the caller falls
// back to the cap it already knows, hi). On return into holds the schedule
// of that cap's probe; it is left untouched when best is 0, so a caller
// pre-loads it with its fallback.
//
// The contract is exact equivalence with SequentialSearch: an implementation
// may evaluate extra caps speculatively or concurrently, but the (lo, hi)
// narrowing decisions must follow the sequential bisection on the same probe
// answers, so the cap settled — and therefore the encoded bytes of the plan
// assembled from into — is identical however the search is executed. probes
// counts every simulation actually executed, keeping the paper's Fig 2
// plan-cost accounting honest even for speculative searches.
//
// Probe errors encountered on the bisection path abort the search. Errors on
// speculative caps the sequential search would never visit must not.
type CapSearcher func(lo, hi int, probe Probe, into *Schedule) (best, probes int, err error)

// SequentialSearch is the seed implementation of CapSearcher: the plain
// binary search of GenerateCappedMargin, one probe at a time. Every probe
// gets into as its keep: on this walk a probe that meets the target is the
// new best, so one buffer, overwritten by each new best, is all the search
// holds.
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
