package service

import (
	"context"
	"testing"

	"bimodal/internal/sim"
	"bimodal/internal/spec"
	"bimodal/internal/store"
	"bimodal/internal/telemetry"
)

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

// skipUnlessExactAllocs skips an allocation pin under instrumentation
// that allocates on its own (coverage, the race detector).
func skipUnlessExactAllocs(t *testing.T) {
	t.Helper()
	if testing.CoverMode() != "" || raceEnabled {
		t.Skip("instrumented build: allocation counts are not exact")
	}
}

// allocSpec is the steady-state cell the allocation pins measure: a
// param-free quad-core spec on a 1/1024 cache, the shape of the
// miss-stream benchmark's cells.
func allocSpec(t *testing.T) spec.RunSpec {
	t.Helper()
	rs, err := spec.RunSpec{Scheme: "alloy", Mix: "Q4", Seed: 1,
		Options: spec.Options{AccessesPerCore: 2000, CacheDivisor: 1024}}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// TestRunCellSpecAllocs pins the per-cell allocations of a pooled
// RunCellSpec once its simulator is recycled: the miss-stream benchmark
// gates allocs_per_cell at a 10% bound over about ten, so one more
// allocation per cell fails it. The process-wide pool is swapped for a
// private one so idle simulators left by other tests cannot crowd the
// cell's simulator out of it.
func TestRunCellSpecAllocs(t *testing.T) {
	skipUnlessExactAllocs(t)
	saved := cellRunner
	cellRunner = sim.NewRunner(sim.NewRunPool(0), nil, 1, nil)
	t.Cleanup(func() { cellRunner = saved })

	ctx := context.Background()
	for _, scheme := range []string{"alloy", "bimodal"} {
		rs := allocSpec(t)
		rs.Scheme = scheme
		if _, err := RunCellSpec(ctx, rs); err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(10, func() {
			if _, err := RunCellSpec(ctx, rs); err != nil {
				t.Fatal(err)
			}
		})
		if got != 10 {
			t.Errorf("%s: pooled RunCellSpec = %v allocs/cell, want 10", scheme, got)
		}
	}
}

// TestWarmRestoredCellAllocs pins the per-cell allocations of a cell whose
// warmup is replaced by a stored snapshot: prefix hashing, the store read,
// the restore and the marshal, on a recycled simulator. The alloy cell is
// pinned because its count is stable; bimodal's average sits just
// below 107, so the truncated count flips between 106 and 107.
func TestWarmRestoredCellAllocs(t *testing.T) {
	skipUnlessExactAllocs(t)
	ctx := context.Background()
	r := sim.NewRunner(sim.NewRunPool(0), store.NewMem(), 1, telemetry.NewRegistry())
	rs := allocSpec(t)
	if _, _, err := runCell(ctx, r, rs); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(10, func() {
		if _, warm, err := runCell(ctx, r, rs); err != nil || !warm {
			t.Fatalf("warm=%v err=%v", warm, err)
		}
	})
	if got != 94 {
		t.Errorf("warm-restored cell = %v allocs/cell, want 94", got)
	}
}
