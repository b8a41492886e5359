//go:build race

package planner

// raceEnabled reports that this binary was built with -race. Allocation
// pins skip under race: the race runtime's bookkeeping inflates counts.
const raceEnabled = true
