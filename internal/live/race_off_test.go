//go:build !race

package live_test

// raceEnabled is false in regular builds; see race_on_test.go.
const raceEnabled = false
