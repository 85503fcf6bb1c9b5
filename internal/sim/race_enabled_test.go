//go:build race

package sim

// raceEnabled reports whether the race detector is compiled in. Under
// -race sync.Pool drops a share of Puts at random, so tests that rely
// on getting a pooled environment back skip their strict assertions.
const raceEnabled = true
