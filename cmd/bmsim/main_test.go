package main

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"bimodal/internal/service"
	"bimodal/internal/spec"
)

// TestJSONANTTCellMatchesService checks that -json on an ANTT spec prints
// the very cell bytes a server or cluster worker produces for that spec,
// at any -workers value.
func TestJSONANTTCellMatchesService(t *testing.T) {
	rs, err := spec.RunSpec{
		Scheme:  "bimodal",
		Mix:     "Q1",
		Seed:    3,
		Options: spec.Options{AccessesPerCore: 2000, CacheDivisor: 64, ANTT: true},
	}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, err := service.RunCellSpec(ctx, rs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		var out bytes.Buffer
		if err := run(ctx, &out, rs, workers, true, "", ""); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Cells []json.RawMessage `json:"cells"`
		}
		if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		if len(doc.Cells) != 1 {
			t.Fatalf("workers=%d: %d cells, want 1", workers, len(doc.Cells))
		}
		var got bytes.Buffer
		if err := json.Compact(&got, doc.Cells[0]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("workers=%d: bmsim -json cell differs from service.RunCellSpec\nbmsim   %s\nservice %s", workers, got.Bytes(), want)
		}
		if !bytes.Contains(want, []byte(`"antt":`)) {
			t.Errorf("cell carries no ANTT: %s", want)
		}
	}
}
