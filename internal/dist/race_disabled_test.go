//go:build !race

package dist

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
