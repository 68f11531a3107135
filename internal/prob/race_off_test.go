//go:build !race

package prob

// raceEnabled reports whether the race detector is compiled in; the alloc
// pin skips under it (the race runtime itself allocates).
const raceEnabled = false
