//go:build race

package service

// The race detector instruments allocations, so the per-cell allocation
// pins do not hold under -race.
func init() { raceEnabled = true }
