package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bimodal/internal/spec"
)

// TestExpandOrderAndFields checks the client-side grid expansion: one
// spec per (mix, scheme) pair, mixes outermost, every spec carrying the
// shared options and seed.
func TestExpandOrderAndFields(t *testing.T) {
	o := spec.Options{AccessesPerCore: 2000, WarmupPerCore: -1, CacheDivisor: 64, Prefetch: 2, ANTT: true}
	got, err := expand([]string{"Q1", "Q7", "E3"}, []string{"alloy", "bimodal"}, o, 9)
	if err != nil {
		t.Fatal(err)
	}
	var want []spec.RunSpec
	for _, mix := range []string{"Q1", "Q7", "E3"} {
		for _, scheme := range []string{"alloy", "bimodal"} {
			want = append(want, spec.RunSpec{Scheme: scheme, Mix: mix, Options: o, Seed: 9})
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("expand =\n%+v\nwant\n%+v", got, want)
	}
}

// TestExpandRejectsEmptyLists checks an empty -mixes or -schemes list
// fails on the client, before any request is sent.
func TestExpandRejectsEmptyLists(t *testing.T) {
	for _, tc := range []struct {
		mixes, schemes []string
		want           string
	}{
		{nil, []string{"alloy"}, "request needs at least one mix"},
		{[]string{"Q1"}, nil, "request needs at least one scheme"},
		{splitList(" , "), splitList("alloy"), "request needs at least one mix"},
	} {
		if _, err := expand(tc.mixes, tc.schemes, spec.Options{}, 1); err == nil || err.Error() != tc.want {
			t.Errorf("expand(%q, %q) err = %v, want %q", tc.mixes, tc.schemes, err, tc.want)
		}
	}
}

// TestBuildRequestSpecFile checks -spec submits the file's specs as
// given, with -seed as the request seed rather than copied into them.
func TestBuildRequestSpecFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.json")
	body := `[{"scheme":"alloy","mix":"Q1"},{"scheme":"bimodal","mix":"Q7","seed":4}]`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	req, err := buildRequest(path, []string{"ignored"}, []string{"ignored"}, spec.Options{AccessesPerCore: 5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if req.Seed != 3 || len(req.Specs) != 2 || req.Specs[0].Seed != 0 || req.Specs[1].Seed != 4 {
		t.Errorf("request = %+v, want the file's two specs with request seed 3", req)
	}
	if req.Specs[0].Options != (spec.Options{}) {
		t.Errorf("option flags leaked into a spec file's specs: %+v", req.Specs[0].Options)
	}
	if _, err := buildRequest("", nil, []string{"alloy"}, spec.Options{}, 1); err == nil ||
		!strings.Contains(err.Error(), "at least one mix") {
		t.Errorf("empty -mixes: err = %v", err)
	}
}
