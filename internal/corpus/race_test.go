//go:build race

package corpus

// raceEnabled reports a -race build, under which sync.Pool drops a share
// of Puts on purpose, so pooled-scratch allocation counts are not exact.
const raceEnabled = true
