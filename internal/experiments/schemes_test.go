package experiments

import (
	"reflect"
	"testing"
)

// TestBaselineSchemesFromRegistry pins the derivation every figure relies
// on: the baseline list comes from the scheme registry, in registration
// order, with AlloyCache first (the normalization reference).
func TestBaselineSchemesFromRegistry(t *testing.T) {
	want := []string{"alloy", "lohhill", "atcache", "footprint"}
	if got := baselineSchemes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("baselines = %v, want %v", got, want)
	}
	if ref := referenceBaseline(); ref != "alloy" {
		t.Errorf("reference baseline = %q, want alloy", ref)
	}
}
