package spec

import (
	"bytes"
	"testing"

	"bimodal/internal/dramcache"
)

// FuzzSpec feeds arbitrary bytes through Parse and checks the invariants
// the memoization layer depends on: every spec that parses and
// canonicalizes must reach a fixed point (re-parsing its canonical JSON
// yields the same canonical JSON, hence the same hash), and
// canonicalization must never panic regardless of input.
func FuzzSpec(f *testing.F) {
	f.Add([]byte(`{"scheme":"bimodal","mix":"Q1"}`))
	f.Add([]byte(`{"scheme":"bi-modal","mix":"Q7","seed":42}`))
	f.Add([]byte(`{"scheme":"cometa","mix":"E3","options":{"accesses_per_core":1000,"antt":true}}`))
	f.Add([]byte(`{"scheme":"alloy","mix":"S2","options":{"warmup_per_core":-1,"cache_divisor":64}}`))
	f.Add([]byte(`{"scheme":"bimodal","mix":"Q2","params":{"way_locator_k":12,"fixed_big":true}}`))
	f.Add([]byte(`{"scheme":"footprint-cache","mix":"Q1","options":{"cache_bytes":33554432}}`))
	f.Add([]byte(`{"scheme":"wl-only","mix":"Q1","params":{"victim_entries":0}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rs, err := Parse(data)
		if err != nil {
			return // invalid JSON or unknown fields: rejection is the contract
		}
		c, err := rs.Canonical()
		if err != nil {
			return // parsed but semantically invalid (unknown scheme, bad params)
		}
		j1, err := c.CanonicalJSON()
		if err != nil {
			t.Fatalf("canonical spec failed to encode: %v", err)
		}
		rt, err := Parse(j1)
		if err != nil {
			t.Fatalf("canonical JSON failed to re-parse: %v\n%s", err, j1)
		}
		c2, err := rt.Canonical()
		if err != nil {
			t.Fatalf("round-tripped spec failed to canonicalize: %v\n%s", err, j1)
		}
		j2, err := c2.CanonicalJSON()
		if err != nil {
			t.Fatalf("round-tripped spec failed to encode: %v", err)
		}
		if !bytes.Equal(j1, j2) {
			t.Fatalf("canonical JSON is not a fixed point:\nonce  %s\ntwice %s", j1, j2)
		}
		h1, _ := c.Hash()
		h2, _ := c2.Hash()
		if h1 != h2 {
			t.Fatalf("hash drifted across round trip: %s vs %s", h1, h2)
		}
	})
}

// FuzzLookup checks that Lookup never panics and accepts a name exactly
// when it is a registered canonical name or alias; an accepted name
// resolves to a descriptor whose Name is canonical (listed by Names) and
// whose paper-default Factory builds a scheme.
func FuzzLookup(f *testing.F) {
	known := map[string]bool{}
	canonical := map[string]bool{}
	for _, d := range Descriptors() {
		known[d.Name] = true
		canonical[d.Name] = true
		for _, a := range d.Aliases {
			known[a] = true
		}
	}
	for _, name := range Names() {
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
		d, err := Lookup(name)
		if err != nil {
			if known[name] {
				t.Fatalf("Lookup(%q) rejected a registered name: %v", name, err)
			}
			return
		}
		if !known[name] {
			t.Fatalf("Lookup(%q) accepted an unregistered name as %q", name, d.Name)
		}
		if !canonical[d.Name] {
			t.Fatalf("Lookup(%q).Name = %q is not a canonical name", name, d.Name)
		}
		if s := d.Factory()(cfg); s == nil || s.Name() == "" {
			t.Fatalf("Lookup(%q): factory built no scheme", name)
		}
	})
}
