//go:build race

package dist

// raceEnabled reports whether the race detector is compiled in.  The
// race detector slows the reference convolution by an order of
// magnitude, so the full-size differential case is skipped under it.
const raceEnabled = true
