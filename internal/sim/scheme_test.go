package sim

import (
	"testing"

	"bimodal/internal/dramcache"
	"bimodal/internal/spec"
)

// factoryFor resolves a bare scheme name the way every run does.
func factoryFor(name string) (Factory, error) {
	return FactoryForSpec(spec.RunSpec{Scheme: name}, 4)
}

// TestParseScheme checks name resolution: every canonical name and every
// alias resolves, and an unknown name is rejected.
func TestParseScheme(t *testing.T) {
	for _, d := range spec.Descriptors() {
		for _, name := range append([]string{d.Name}, d.Aliases...) {
			if f, err := factoryFor(name); err != nil || f == nil {
				t.Errorf("FactoryForSpec(%q) = %v", name, err)
			}
		}
	}
	if _, err := factoryFor("no-such-scheme"); err == nil {
		t.Error("FactoryForSpec accepted an unknown name")
	}
}

// TestSchemeNamesComplete pins the regression where bimodal-cometa and
// bimodal-bypass were missing from the listing.
func TestSchemeNamesComplete(t *testing.T) {
	names := spec.Names()
	if len(names) != len(spec.Descriptors()) {
		t.Fatalf("spec.Names() has %d entries, want %d", len(names), len(spec.Descriptors()))
	}
	want := map[string]bool{"bimodal-cometa": false, "bimodal-bypass": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("spec.Names() missing %q", n)
		}
	}
}

func TestSchemeFactoryKnownNames(t *testing.T) {
	for _, n := range spec.Names() {
		f, err := factoryFor(n)
		if err != nil || f == nil {
			t.Errorf("%s: %v", n, err)
			continue
		}
		cfg := dramcache.DefaultConfig(4)
		cfg.CacheBytes = 1 << 20
		s := f(cfg)
		if s == nil || s.Name() == "" {
			t.Errorf("%s: bad scheme", n)
		}
	}
	if _, err := factoryFor("bogus"); err == nil {
		t.Error("unknown scheme accepted")
	}
	for _, extra := range []string{"bimodal-cometa", "bimodal-bypass"} {
		if _, err := factoryFor(extra); err != nil {
			t.Errorf("%s: %v", extra, err)
		}
	}
}
