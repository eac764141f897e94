package service

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"bimodal/internal/spec"
)

// parityGolden is one recorded result: the per-cell spec hashes and the
// exact bytes of the result's "cells" array.
type parityGolden struct {
	SpecHashes []string        `json:"spec_hashes"`
	Cells      json.RawMessage `json:"cells"`
}

// TestSweepParity replays requests whose results were recorded from the
// POST /v1/jobs endpoint before it was retired, now submitted as
// spec-list sweeps: every cell's bytes and spec hash must be unchanged,
// so result stores written by earlier releases stay valid. The second
// pass must be served entirely from the store and still match.
func TestSweepParity(t *testing.T) {
	o := spec.Options{AccessesPerCore: 1500, CacheDivisor: 64}
	tenants := &spec.WorkloadSpec{
		Tenants: []spec.TenantSpec{
			{Profile: "kvstore"}, {Profile: "kvstore"},
			{Profile: "kvstore"}, {Profile: "kvstore"},
		},
		SharedPct: 10,
	}
	cases := []struct {
		golden string
		req    SweepRequest
	}{
		// Recorded from the classic form {"mixes":["Q1","Q7"],
		// "schemes":["alloy","bimodal"],"options":{"accesses_per_core":1500,
		// "cache_divisor":64},"seed":7}, written out by hand, mixes
		// outermost.
		{"classic", SweepRequest{Specs: []spec.RunSpec{
			{Scheme: "alloy", Mix: "Q1", Options: o, Seed: 7},
			{Scheme: "bimodal", Mix: "Q1", Options: o, Seed: 7},
			{Scheme: "alloy", Mix: "Q7", Options: o, Seed: 7},
			{Scheme: "bimodal", Mix: "Q7", Options: o, Seed: 7},
		}}},
		{"tenant", SweepRequest{Specs: []spec.RunSpec{
			{Scheme: "bimodal", Workload: tenants, Options: o, Seed: 7},
		}}},
		{"antt", SweepRequest{Specs: []spec.RunSpec{{
			Scheme:  "alloycache", // alias of alloy
			Mix:     "Q1",
			Options: spec.Options{AccessesPerCore: 1000, CacheDivisor: 64, ANTT: true},
			Seed:    7,
		}}}},
	}
	_, c := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for _, tc := range cases {
		raw, err := os.ReadFile(filepath.Join("testdata", "parity_"+tc.golden+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var want parityGolden
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			st := mustSweep(ctx, t, c, tc.req)
			if pass == 1 && st.StoreHits != st.Cells {
				t.Errorf("%s resweep: %d/%d cells from store, want all", tc.golden, st.StoreHits, st.Cells)
			}
			if !reflect.DeepEqual(st.SpecHashes, want.SpecHashes) {
				t.Errorf("%s pass %d: spec hashes %v, want %v", tc.golden, pass, st.SpecHashes, want.SpecHashes)
			}
			var got parityGolden
			if err := json.Unmarshal(st.Result, &got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Cells, want.Cells) {
				t.Errorf("%s pass %d: cells diverged\ngot:  %s\nwant: %s", tc.golden, pass, got.Cells, want.Cells)
			}
		}
	}
}
