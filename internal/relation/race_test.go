//go:build race

package relation

// raceEnabled reports a race-detector build, under which sync.Pool drops
// items at random, so allocation counts that rely on a pool vary.
const raceEnabled = true
