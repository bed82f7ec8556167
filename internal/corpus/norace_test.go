//go:build !race

package corpus

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
