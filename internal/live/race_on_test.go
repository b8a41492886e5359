//go:build race

package live_test

// raceEnabled reports that this binary was built with -race. The
// differential replays the simulator on one goroutine, so the race detector
// has nothing to find in it that the concurrent tests do not reach, and
// TestLiveMatchesSimulator runs only its smallest clusters under it.
const raceEnabled = true
