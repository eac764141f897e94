package sim

import (
	"reflect"
	"strings"
	"testing"

	"bimodal/internal/spec"
	"bimodal/internal/workloads"
)

// TestFactoryForSpecMatchesLegacy checks the spec path is a pure
// refactoring: for every scheme, running via FactoryForSpec produces the
// exact result the legacy wiring (BiModalFactory for plain bimodal, the
// descriptor's paper-default Factory for everything else — what cmd/bmsim
// and the service did before specs) produces. This is the parity
// guarantee behind the golden result files staying byte-identical.
func TestFactoryForSpecMatchesLegacy(t *testing.T) {
	mix := workloads.MustByName("Q1")
	for _, name := range spec.Names() {
		rs := spec.RunSpec{
			Scheme: name,
			Mix:    "Q1",
			Seed:   7,
			Options: spec.Options{
				AccessesPerCore: 2000,
				CacheDivisor:    64,
			},
		}
		specFactory, err := FactoryForSpec(rs, mix.Cores())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c, err := rs.Canonical()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		opts := OptionsForSpec(c)

		var legacy Factory
		if name == "bimodal" {
			legacy = BiModalFactory(mix.Cores(), opts)
		} else {
			legacy = presetFactory(name)
		}
		want := Run(mix, legacy, opts)
		got := Run(mix, specFactory, opts)
		if !reflect.DeepEqual(want.Report, got.Report) {
			t.Errorf("%s: report diverged\nlegacy %+v\nspec   %+v", name, want.Report, got.Report)
		}
		if !reflect.DeepEqual(want.PerCore, got.PerCore) {
			t.Errorf("%s: per-core results diverged", name)
		}
		if want.Energy != got.Energy {
			t.Errorf("%s: energy diverged", name)
		}
	}
}

// TestFactoryForSpecParamsChangeResult checks spec params actually reach
// the builder: a geometry override must produce a different simulation
// than the defaults.
func TestFactoryForSpecParamsChangeResult(t *testing.T) {
	mix := workloads.MustByName("Q1")
	base := spec.RunSpec{
		Scheme:  "bimodal",
		Mix:     "Q1",
		Seed:    7,
		Options: spec.Options{AccessesPerCore: 2000, CacheDivisor: 64},
	}
	tweaked := base
	tweaked.Params = spec.Params{"fixed_big": 1}

	fa, err := FactoryForSpec(base, mix.Cores())
	if err != nil {
		t.Fatal(err)
	}
	fb, err := FactoryForSpec(tweaked, mix.Cores())
	if err != nil {
		t.Fatal(err)
	}
	c, _ := base.Canonical()
	opts := OptionsForSpec(c)
	a := Run(mix, fa, opts)
	b := Run(mix, fb, opts)
	if reflect.DeepEqual(a.Report, b.Report) {
		t.Error("fixed_big param had no effect on the simulation")
	}
}

func TestFactoryForSpecRejectsBadSpecs(t *testing.T) {
	if _, err := FactoryForSpec(spec.RunSpec{Scheme: "bogus", Mix: "Q1"}, 4); err == nil ||
		!strings.Contains(err.Error(), "unknown scheme") {
		t.Errorf("unknown scheme: %v", err)
	}
	bad := spec.RunSpec{Scheme: "alloy", Mix: "Q1", Params: spec.Params{"way_locator_k": 12}}
	if _, err := FactoryForSpec(bad, 4); err == nil ||
		!strings.Contains(err.Error(), "takes no parameters") {
		t.Errorf("baseline params: %v", err)
	}
}

// TestFactoryForSpecZeroParamIsDefault checks a zero param means "absent"
// on the factory path too: it must not switch off the preset's own value.
func TestFactoryForSpecZeroParamIsDefault(t *testing.T) {
	mix := workloads.MustByName("Q1")
	opts := Options{AccessesPerCore: 2000, Seed: 7, CacheDivisor: 64}
	preset, err := FactoryForSpec(spec.RunSpec{Scheme: "wl-only"}, mix.Cores())
	if err != nil {
		t.Fatal(err)
	}
	zeroed, err := FactoryForSpec(spec.RunSpec{Scheme: "wl-only", Params: spec.Params{"fixed_big": 0}}, mix.Cores())
	if err != nil {
		t.Fatal(err)
	}
	a, b := Run(mix, preset, opts), Run(mix, zeroed, opts)
	if !reflect.DeepEqual(a.Report, b.Report) {
		t.Error("fixed_big: 0 overrode the wl-only preset")
	}
}
