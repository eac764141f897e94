//go:build race

package bench

// The race detector instruments allocations, so the allocation pins do not
// hold under -race.
func init() { raceEnabled = true }
