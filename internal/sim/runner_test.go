package sim

import (
	"bytes"
	"context"
	"testing"

	"bimodal/internal/spec"
	"bimodal/internal/store"
	"bimodal/internal/telemetry"
	"bimodal/internal/workloads"
)

// runnerSpec returns a small canonical alloy spec on Q1; cells with equal
// warmup share one warmup prefix whatever their measured length.
func runnerSpec(t *testing.T, accesses int64, o spec.Options) spec.RunSpec {
	t.Helper()
	o.AccessesPerCore = accesses
	o.CacheDivisor = 64
	rs, err := spec.RunSpec{Scheme: "alloy", Mix: "Q1", Seed: 5, Options: o}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// straight runs rs on a fresh simulator through RunContext or
// ANTTContext, the reference every runner path must reproduce.
func straight(t *testing.T, rs spec.RunSpec) ([]byte, float64) {
	t.Helper()
	mix, err := workloads.MixForSpec(rs)
	if err != nil {
		t.Fatal(err)
	}
	f, err := FactoryForSpec(rs, mix.Cores())
	if err != nil {
		t.Fatal(err)
	}
	if rs.Options.ANTT {
		antt, res, err := ANTTContext(context.Background(), mix, f, OptionsForSpec(rs))
		if err != nil {
			t.Fatal(err)
		}
		return encodeResult(t, res), antt
	}
	res, err := RunContext(context.Background(), mix, f, OptionsForSpec(rs))
	if err != nil {
		t.Fatal(err)
	}
	return encodeResult(t, res), 0
}

// runEncoded runs rs through r and encodes the result inside the callback,
// before a pooled simulator can be recycled.
func runEncoded(t *testing.T, r *Runner, rs spec.RunSpec) (raw []byte, antt float64, warm bool) {
	t.Helper()
	warm, err := r.Run(context.Background(), rs, func(res RunResult, a float64) error {
		raw, antt = encodeResult(t, res), a
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw, antt, warm
}

// TestRunnerMatchesStraightRun checks every runner shape against a fresh
// straight-through run: unpooled, pooled (twice, so the second run is on
// a Reset simulator) and ANTT at one and two workers.
func TestRunnerMatchesStraightRun(t *testing.T) {
	plain := runnerSpec(t, 500, spec.Options{})
	want, _ := straight(t, plain)
	pool := NewRunPool(0)
	for i, r := range []*Runner{NewRunner(nil, nil, 1, nil), NewRunner(pool, nil, 1, nil), NewRunner(pool, nil, 1, nil)} {
		if got, _, warm := runEncoded(t, r, plain); warm || !bytes.Equal(got, want) {
			t.Errorf("runner %d: warm=%v, result differs from a straight run", i, warm)
		}
	}
	if hits, _ := pool.Stats(); hits != 1 {
		t.Errorf("pool hits = %d, want 1", hits)
	}

	antt := runnerSpec(t, 300, spec.Options{ANTT: true})
	wantRes, wantANTT := straight(t, antt)
	for _, workers := range []int{1, 2} {
		got, a, _ := runEncoded(t, NewRunner(pool, store.NewMem(), workers, telemetry.NewRegistry()), antt)
		if !bytes.Equal(got, wantRes) || a != wantANTT || a <= 0 {
			t.Errorf("workers=%d: ANTT %v (want %v) or its run differs from ANTTContext", workers, a, wantANTT)
		}
	}
}

// TestRunnerWarmsEachPrefixOnce runs cells sharing one warmup prefix
// through a store-backed runner: the first warms and publishes, the rest
// restore, and every result equals a straight run. Hits count exactly the
// restored cells.
func TestRunnerWarmsEachPrefixOnce(t *testing.T) {
	reg := telemetry.NewRegistry()
	st := store.NewMem()
	r := NewRunner(NewRunPool(0), st, 1, reg)
	for i, n := range []int64{200, 400, 300} {
		rs := runnerSpec(t, n, spec.Options{WarmupPerCore: 500})
		want, _ := straight(t, rs)
		got, _, warm := runEncoded(t, r, rs)
		if warm != (i > 0) {
			t.Errorf("cell %d: warm=%v, want %v", i, warm, i > 0)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("cell %d: result differs from a straight run", i)
		}
	}
	if n, _ := st.Len(); n != 1 {
		t.Errorf("store holds %d blobs, want the one snapshot", n)
	}
	hits := reg.Counter("bimodal_snapshot_hits_total").Value()
	misses := reg.Counter("bimodal_snapshot_misses_total").Value()
	if hits != 2 || misses != 1 {
		t.Errorf("snapshot hits/misses = %d/%d, want 2/1", hits, misses)
	}
	if reg.Counter("bimodal_snapshot_bytes_total").Value() <= 0 {
		t.Error("snapshot bytes not counted")
	}
}

// TestRunnerPoolKey pins the pool-key rule: params are part of the key,
// in sorted order, so differently-built schemes never share simulators.
func TestRunnerPoolKey(t *testing.T) {
	for _, c := range []struct {
		rs   spec.RunSpec
		want string
	}{
		{spec.RunSpec{Scheme: "alloy"}, "alloy"},
		{spec.RunSpec{Scheme: "bimodal", Params: spec.Params{"ways": 8, "threshold": 3}}, "bimodal?threshold=3?ways=8"},
	} {
		if got := poolScheme(c.rs); got != c.want {
			t.Errorf("poolScheme(%v) = %q, want %q", c.rs, got, c.want)
		}
	}
}
