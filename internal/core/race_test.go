//go:build race

package core

// Under the race detector sync.Pool drops objects at random, so tests that
// count allocations skip themselves.
func init() { raceEnabled = true }
