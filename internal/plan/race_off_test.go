//go:build !race

package plan

// raceEnabled reports that this binary was built with -race. Allocation
// pins skip under race: the race runtime's bookkeeping inflates counts.
const raceEnabled = false
