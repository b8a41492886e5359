//go:build race

package scheduler_test

// raceEnabled reports that this binary was built with -race, whose runtime
// inflates allocation counts; the zero-alloc pins skip themselves.
const raceEnabled = true
