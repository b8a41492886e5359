//go:build !race

package scheduler_test

const raceEnabled = false
