package bench

import (
	"runtime/debug"
	"testing"
)

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

// allocPin is one case's exact steady-state allocation count.
type allocPin struct {
	allocs float64 // allocations per op once the op's state has warmed up
	runs   int     // ops averaged over, after the warm-up ops
	slow   bool    // seconds per op: skipped under -short
}

// allocPins covers every registered case. The hot paths allocate nothing;
// the pooled cases allocate only per-run bookkeeping on a recycled
// simulator; the constructing cases build whole simulators every op.
//
// EndToEndMixPooled averages five ops because its per-op count depends on
// the seed (a seed that needs more queue capacity than any before it
// grows a buffer once). SweepWarmRestore averages five because a restore
// now and then allocates a few more times, a variation not yet traced to
// its source; the truncated average absorbs both, while one more
// allocation on every op still moves it.
var allocPins = map[string]allocPin{
	"BiModalAccess":          {0, 1000, false},
	"BiModalAccessMissHeavy": {0, 1000, false},
	"AlloyAccess":            {0, 1000, false},
	"CoreCacheAccess":        {0, 1000, false},
	"WayLocatorLookup":       {0, 1000, false},
	"DRAMChannelAccess":      {0, 1000, false},
	"MemctrlRead":            {0, 1000, false},
	"TraceGeneration":        {0, 1000, false},
	"EndToEndMix":            {137, 5, false},
	"EndToEndMixPooled":      {3, 5, false},
	"SweepColdWarmup":        {1305, 1, true},
	"SweepWarmRestore":       {1918, 5, true},
	"SweepPooled":            {32, 5, false},
	"TraceNextKVStore":       {0, 1000, false},
	"TraceNextWebserve":      {0, 1000, false},
	"TraceNextScan":          {0, 1000, false},
	"TraceNextInterleave4":   {0, 1000, false},
}

// TestCaseAllocs pins every registered case's allocations per op. The
// first op builds the op's state (a pooled simulator, a grown buffer);
// testing.AllocsPerRun then runs one more warm-up op and averages the
// rest. Unlike a benchmark's allocs/op, which spreads one-time setup over
// a b.N that depends on the host's speed, the count is exact and the same
// on every host. The collector is off while counting: a collection
// empties sync.Pools, and refilling them would add allocations that
// depend on when it ran.
func TestCaseAllocs(t *testing.T) {
	if testing.CoverMode() != "" || raceEnabled {
		t.Skip("instrumented build: allocation counts are not exact")
	}
	for _, c := range Cases() {
		t.Run(c.Name, func(t *testing.T) {
			pin, ok := allocPins[c.Name]
			if !ok {
				t.Fatalf("no allocation pin for case %s", c.Name)
			}
			if pin.slow && testing.Short() {
				t.Skip("seconds per op; skipped in -short")
			}
			run := c.Setup(t)
			run(1)
			gc := debug.SetGCPercent(-1)
			got := testing.AllocsPerRun(pin.runs, func() { run(1) })
			debug.SetGCPercent(gc)
			if got != pin.allocs {
				t.Errorf("%v allocs/op, want %v", got, pin.allocs)
			}
		})
	}
	for name := range allocPins {
		if _, ok := ByName(name); !ok {
			t.Errorf("allocation pin for unregistered case %s", name)
		}
	}
}
