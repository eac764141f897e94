package sim

import (
	"testing"

	"bimodal/internal/dramcache"
	"bimodal/internal/spec"
)

// FuzzParseScheme checks that resolving a scheme name through
// FactoryForSpec never panics and agrees with the scheme registry: every
// name the registry knows (canonical or alias, like "cometa") yields a
// factory that builds a scheme, and every name it rejects is rejected
// here too.
func FuzzParseScheme(f *testing.F) {
	for _, name := range spec.Names() {
		f.Add(name)
	}
	f.Add("")
	f.Add("bimodal ")
	f.Add("BIMODAL")
	f.Add("alloy\x00")
	f.Add("cometa")
	f.Add("without-locator")
	f.Add("scheme-that-does-not-exist")

	cfg := dramcache.DefaultConfig(4)
	cfg.CacheBytes = 1 << 20
	f.Fuzz(func(t *testing.T, name string) {
		fac, err := FactoryForSpec(spec.RunSpec{Scheme: name}, 4)
		_, lerr := spec.Lookup(name)
		if err != nil {
			if lerr == nil {
				t.Fatalf("FactoryForSpec(%q) rejected a registry-known name: %v", name, err)
			}
			return
		}
		if lerr != nil {
			t.Fatalf("FactoryForSpec(%q) accepted a registry-unknown name: %v", name, lerr)
		}
		if fac == nil {
			t.Fatalf("FactoryForSpec(%q): nil factory for a known scheme", name)
		}
		if s := fac(cfg); s == nil || s.Name() == "" {
			t.Fatalf("FactoryForSpec(%q): factory built no scheme", name)
		}
	})
}
