package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bimodal/internal/dramcache"
	"bimodal/internal/spec"
	"bimodal/internal/trace"
)

// writeTrace generates a small trace file and returns its path.
func writeTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "mcf.trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	g := trace.NewSynthetic(trace.MustProfile("mcf"), 0, 1)
	for i := 0; i < 20000; i++ {
		if err := w.Write(g.Next()); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReplayRegistry replays one trace under every registered name and
// alias. The five schemes -replay accepted before it built through the
// registry must report exactly what their direct constructors report.
func TestReplayRegistry(t *testing.T) {
	path := writeTrace(t)
	direct := map[string]func(dramcache.Config) dramcache.Scheme{
		"bimodal":   func(c dramcache.Config) dramcache.Scheme { return dramcache.NewBiModal(c) },
		"alloy":     func(c dramcache.Config) dramcache.Scheme { return dramcache.NewAlloy(c) },
		"lohhill":   func(c dramcache.Config) dramcache.Scheme { return dramcache.NewLohHill(c) },
		"atcache":   func(c dramcache.Config) dramcache.Scheme { return dramcache.NewATCache(c) },
		"footprint": func(c dramcache.Config) dramcache.Scheme { return dramcache.NewFootprint(c) },
	}
	r, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	tr, err := trace.NewReader(r, path)
	if err != nil {
		t.Fatal(err)
	}
	records := tr.Records()

	for _, d := range spec.Descriptors() {
		var want dramcache.Report
		if ctor, ok := direct[d.Name]; ok {
			s := ctor(dramcache.DefaultConfig(4))
			now := int64(0)
			for _, a := range records {
				now += int64(a.Gap)
				s.Access(dramcache.Request{Addr: a.Addr, Write: a.Write}, now)
			}
			want = s.Report()
			delete(direct, d.Name)
		}
		for _, name := range append([]string{d.Name}, d.Aliases...) {
			got, err := replay(path, name)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				continue
			}
			if got.Accesses != int64(len(records)) {
				t.Errorf("%s: %d accesses replayed, want %d", name, got.Accesses, len(records))
			}
			if want.Scheme != "" && got != want {
				t.Errorf("%s: replay report differs from the direct constructor's:\n got %+v\nwant %+v", name, got, want)
			}
		}
	}
	for name := range direct {
		t.Errorf("scheme %s is no longer registered", name)
	}
}

func TestReplayUnknownScheme(t *testing.T) {
	_, err := replay(writeTrace(t), "bimodl")
	if err == nil || !strings.Contains(err.Error(), `did you mean "bimodal"`) {
		t.Fatalf("err = %v, want the registry's did-you-mean error", err)
	}
}
