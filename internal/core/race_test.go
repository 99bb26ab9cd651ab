//go:build race

package core

// raceEnabled reports a race-detector build, under which sync.Pool drops
// items at random, so allocation bounds measured without it do not hold.
const raceEnabled = true
