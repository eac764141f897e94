package main

import "testing"

// aa is an A/A sample: twenty paired ratios (the default pair count) of
// one binary against itself, within 5% of 1.
var aa = []float64{
	1.0099, 0.9551, 0.9934, 1.0480, 0.9683, 0.9829, 1.0279, 1.0004, 0.9808, 1.0133,
	0.9912, 1.0215, 0.9768, 1.0051, 0.9987, 1.0342, 0.9634, 1.0118, 0.9876, 1.0021,
}

func scaled(rs []float64, f float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r * f
	}
	return out
}

func TestVerdictAAPasses(t *testing.T) {
	v := verdict(aa)
	if v.regressed {
		t.Fatalf("A/A sample regressed: median %.4f interval [%.4f, %.4f]", v.median, v.lo, v.hi)
	}
	if v.lo > 1 || v.hi < 1 {
		t.Errorf("A/A interval [%.4f, %.4f] excludes 1", v.lo, v.hi)
	}
}

func TestVerdictShiftFails(t *testing.T) {
	v := verdict(scaled(aa, 1.05))
	if !v.regressed {
		t.Fatalf("+5%% sample passed: median %.4f interval [%.4f, %.4f]", v.median, v.lo, v.hi)
	}
}

// TestVerdictBoundHolds checks that a shift the interval resolves but
// that stays under slowdownBound passes.
func TestVerdictBoundHolds(t *testing.T) {
	tight := make([]float64, 20)
	for i := range tight {
		tight[i] = 1.018 + 0.0002*float64(i)
	}
	if v := verdict(tight); v.lo <= 1 || v.regressed {
		t.Fatalf("+2%% tight sample: interval [%.4f, %.4f], regressed %v; want an interval above 1 that passes",
			v.lo, v.hi, v.regressed)
	}
}

// TestVerdictNoisyShiftPasses checks that a median past the bound does
// not fail a case whose interval still reaches below 1: the pairs cannot
// tell that shift from noise.
func TestVerdictNoisyShiftPasses(t *testing.T) {
	noisy := []float64{0.70, 0.80, 0.90, 0.95, 1.04, 1.05, 1.06, 1.20, 1.30, 1.40,
		0.75, 0.85, 0.92, 0.98, 1.045, 1.055, 1.10, 1.25, 1.35, 1.45}
	if v := verdict(noisy); v.median <= 1+slowdownBound || v.lo > 1 || v.regressed {
		t.Fatalf("noisy sample: median %.4f interval [%.4f, %.4f], regressed %v; want a median past the bound, an interval reaching below 1, and a pass",
			v.median, v.lo, v.hi, v.regressed)
	}
}

// TestVerdictOutlierPair checks that one disturbed pair, in either
// direction, flips neither verdict.
func TestVerdictOutlierPair(t *testing.T) {
	for _, outlier := range []float64{0.5, 1.8} {
		a := append([]float64(nil), aa...)
		a[3] = outlier
		if v := verdict(a); v.regressed {
			t.Errorf("A/A with a %.1f outlier regressed: median %.4f interval [%.4f, %.4f]", outlier, v.median, v.lo, v.hi)
		}
		s := scaled(aa, 1.05)
		s[3] = outlier
		if v := verdict(s); !v.regressed {
			t.Errorf("+5%% with a %.1f outlier passed: median %.4f interval [%.4f, %.4f]", outlier, v.median, v.lo, v.hi)
		}
	}
}

// TestVerdictReproducible checks that the fixed bootstrap seed makes the
// interval a function of the ratios alone.
func TestVerdictReproducible(t *testing.T) {
	if a, b := verdict(aa), verdict(aa); a != b {
		t.Errorf("verdict differs between calls: %+v vs %+v", a, b)
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{3, 1, 2, 4}
	if m := median(xs); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median = %v, want 3", m)
	}
}
