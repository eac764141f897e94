package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"bimodal/internal/spec"
)

// TestMemoizedResubmission is the memoization acceptance test: submitting
// the exact same request twice must serve the second sweep from the
// content-addressed store — identical result bytes, a store hit per cell,
// and no second simulation (the per-cell histogram count must not move).
func TestMemoizedResubmission(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	req := tinyRequest()
	st1 := mustSweep(ctx, t, c, req)
	if st1.SweepHash == "" {
		t.Fatal("sweep status carries no sweep hash")
	}
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cellsBefore := metricValue(t, metrics, "bimodal_cell_seconds_count")
	if hits := metricValue(t, metrics, "bimodal_sweep_store_hits_total"); hits != 0 {
		t.Fatalf("store hits before resubmission = %d", hits)
	}
	if misses := metricValue(t, metrics, "bimodal_sweep_store_misses_total"); misses != 4 {
		t.Fatalf("store misses = %d, want 4", misses)
	}

	st2 := mustSweep(ctx, t, c, req)
	if st2.ID == st1.ID {
		t.Fatal("resubmission reused the sweep id")
	}
	if st2.SweepHash != st1.SweepHash {
		t.Fatalf("sweep hash changed across identical submissions: %s vs %s", st1.SweepHash, st2.SweepHash)
	}
	if st2.StoreHits != st2.Cells || st2.Cells != 4 {
		t.Fatalf("resubmission served %d/%d cells from the store, want 4/4", st2.StoreHits, st2.Cells)
	}
	if !bytes.Equal(st2.Result, st1.Result) {
		t.Error("store-served result bytes differ from the original run")
	}

	metrics, err = c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if hits := metricValue(t, metrics, "bimodal_sweep_store_hits_total"); hits != 4 {
		t.Errorf("store hits = %d, want 4", hits)
	}
	if cellsAfter := metricValue(t, metrics, "bimodal_cell_seconds_count"); cellsAfter != cellsBefore {
		t.Errorf("cell count moved %d -> %d: the resubmission re-simulated", cellsBefore, cellsAfter)
	}
	if completed := metricValue(t, metrics, "bimodal_sweeps_completed_total"); completed != 2 {
		t.Errorf("completed sweeps = %d, want 2 (store-served sweeps count as completions)", completed)
	}

	// A different seed is a different simulation: it must miss.
	req.Seed = 8
	st3 := mustSweep(ctx, t, c, req)
	if st3.StoreHits != 0 {
		t.Errorf("different seed served %d cells from the store", st3.StoreHits)
	}
	if st3.SweepHash == st1.SweepHash {
		t.Error("different seed shares a sweep hash")
	}
}

// TestMemoizationJoinsEquivalentRequests checks the store keys on the
// canonical form: a spec spelled with an alias and explicit defaults hits
// the entry stored by its canonically-spelled twin.
func TestMemoizationJoinsEquivalentRequests(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	st1 := mustSweep(ctx, t, c, cellRequest("alloy", "Q1",
		spec.Options{AccessesPerCore: 1500, CacheDivisor: 64}, 7))
	st2 := mustSweep(ctx, t, c, cellRequest("alloycache", "Q1", // alias of alloy
		spec.Options{AccessesPerCore: 1500, WarmupPerCore: 1500, CacheDivisor: 64}, 7))
	if st2.StoreHits != 1 || st2.SweepHash != st1.SweepHash || st2.SpecHashes[0] != st1.SpecHashes[0] {
		t.Errorf("equivalent request missed the store: %d store hits, sweep hash %s vs %s, spec hash %s vs %s",
			st2.StoreHits, st2.SweepHash, st1.SweepHash, st2.SpecHashes[0], st1.SpecHashes[0])
	}
	if !bytes.Equal(st2.Result, st1.Result) {
		t.Error("equivalent request returned different bytes")
	}
}

// TestSpecFormSubmission checks the echoed request is canonical: aliases
// resolved, the request seed folded into each spec, params validated.
func TestSpecFormSubmission(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	o := spec.Options{AccessesPerCore: 1500, CacheDivisor: 64}
	st := mustSweep(ctx, t, c, SweepRequest{
		Specs: []spec.RunSpec{
			{Scheme: "cometa", Mix: "Q1", Options: o},
			{Scheme: "bimodal", Mix: "Q1", Params: spec.Params{"fixed_big": 1}, Options: o},
		},
		Seed: 7,
	})
	if st.Cells != 2 {
		t.Fatalf("cells = %d, want 2", st.Cells)
	}
	var res SweepResult
	if err := json.Unmarshal(st.Result, &res); err != nil {
		t.Fatal(err)
	}
	echo := res.Request
	if len(echo.Specs) != 2 || echo.Seed != 0 {
		t.Fatalf("echoed request not in canonical form: %+v", echo)
	}
	if echo.Specs[0].Scheme != "bimodal-cometa" {
		t.Errorf("alias not canonicalized in echo: %q", echo.Specs[0].Scheme)
	}
	for i, rs := range echo.Specs {
		if rs.Seed != 7 {
			t.Errorf("spec %d seed = %d, want the folded request seed 7", i, rs.Seed)
		}
	}
	if res.Cells[0].Scheme != "bimodal-cometa" || res.Cells[1].Scheme != "bimodal" {
		t.Errorf("cell schemes = %q, %q", res.Cells[0].Scheme, res.Cells[1].Scheme)
	}
}

// TestSpecFormValidation checks per-spec validation errors reach the
// client as 400s naming the problem.
func TestSpecFormValidation(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	cases := []struct {
		rs   spec.RunSpec
		want string
	}{
		{spec.RunSpec{Scheme: "alloy", Mix: "Q1", Params: spec.Params{"way_locator_k": 12}},
			"takes no parameters"},
		{spec.RunSpec{Scheme: "bogus", Mix: "Q1"}, "unknown scheme"},
		{spec.RunSpec{Scheme: "alloy", Mix: "Q1", Options: spec.Options{CacheDivisor: 3}},
			"power of two"},
	}
	for _, tc := range cases {
		_, err := c.SubmitSweep(ctx, SweepRequest{Specs: []spec.RunSpec{tc.rs}})
		var se *APIError
		if !errors.As(err, &se) || se.Status != http.StatusBadRequest {
			t.Errorf("%+v: got %v, want 400", tc.rs, err)
			continue
		}
		if !strings.Contains(se.Message, tc.want) {
			t.Errorf("%+v: error %q does not mention %q", tc.rs, se.Message, tc.want)
		}
	}
}

// TestETagRevalidation checks a completed sweep's GET carries the sweep
// hash as a strong ETag and honours If-None-Match with 304.
func TestETagRevalidation(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	st := mustSweep(ctx, t, c, cellRequest("alloy", "Q1",
		spec.Options{AccessesPerCore: 1500, CacheDivisor: 64}, 7))

	url := c.base + "/v1/sweeps/" + st.ID
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if want := `"` + st.SweepHash + `"`; etag != want {
		t.Fatalf("ETag = %q, want %q", etag, want)
	}

	for _, header := range []string{etag, "W/" + etag, `"other", ` + etag, "*"} {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		req.Header.Set("If-None-Match", header)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified {
			t.Errorf("If-None-Match %q: status %d, want 304", header, resp.StatusCode)
		}
	}

	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	req.Header.Set("If-None-Match", `"sha256:feedface"`)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("non-matching If-None-Match: status %d, want 200", resp.StatusCode)
	}
}
