//go:build race

package core

// raceEnabled: under the race detector sync.Pool drops a quarter of its Puts
// on purpose, so allocation counts through a pool are not meaningful.
const raceEnabled = true
