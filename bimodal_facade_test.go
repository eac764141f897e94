package bimodal_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	bimodal "bimodal"
)

func facadeOptions() bimodal.Options {
	return bimodal.Options{AccessesPerCore: 3000, CacheDivisor: 16, Seed: 1}
}

func TestWorkloadLookup(t *testing.T) {
	if bimodal.Workload("Q1").Cores() != 4 {
		t.Error("Q1 should have 4 cores")
	}
	ms, err := bimodal.Workloads(8)
	if err != nil || len(ms) != 16 {
		t.Errorf("Workloads(8): %d mixes, err %v", len(ms), err)
	}
	if _, err := bimodal.Workloads(5); err == nil {
		t.Error("Workloads(5) should fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("Workload should panic on unknown name")
		}
	}()
	bimodal.Workload("nope")
}

func TestRunBiModalFacade(t *testing.T) {
	res := bimodal.RunBiModal(bimodal.Workload("Q13"), facadeOptions())
	if res.Report.Accesses == 0 || res.Report.Scheme != "BiModal" {
		t.Errorf("unexpected result: %+v", res.Report.Scheme)
	}
}

func TestRunSchemeFacade(t *testing.T) {
	res, err := bimodal.RunScheme("alloy", bimodal.Workload("Q13"), facadeOptions())
	if err != nil || res.Report.Scheme != "AlloyCache" {
		t.Errorf("RunScheme: %v %v", res.Report.Scheme, err)
	}
	if _, err := bimodal.RunScheme("bogus", bimodal.Workload("Q13"), facadeOptions()); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestANTTFacade(t *testing.T) {
	antt, err := bimodal.ANTT("bimodal", bimodal.Workload("Q13"), facadeOptions())
	if err != nil || antt <= 0 {
		t.Errorf("ANTT: %v %v", antt, err)
	}
	if _, err := bimodal.ANTT("bogus", bimodal.Workload("Q13"), facadeOptions()); err == nil {
		t.Error("unknown scheme accepted")
	}
	antt2, err := bimodal.ANTT("alloy", bimodal.Workload("Q13"), facadeOptions())
	if err != nil || antt2 <= 0 {
		t.Errorf("alloy ANTT: %v %v", antt2, err)
	}
}

func TestWorkloadByName(t *testing.T) {
	mix, err := bimodal.WorkloadByName("Q1")
	if err != nil || mix.Cores() != 4 {
		t.Errorf("WorkloadByName(Q1): cores %d, err %v", mix.Cores(), err)
	}
	if _, err := bimodal.WorkloadByName("nope"); err == nil {
		t.Error("WorkloadByName should return an error for unknown names")
	}
}

func TestSchemeNamesFacade(t *testing.T) {
	names := bimodal.SchemeNames()
	if len(names) != 9 {
		t.Errorf("SchemeNames() has %d entries, want 9", len(names))
	}
	// Every listed name runs, and so do aliases.
	o := bimodal.Options{AccessesPerCore: 200, CacheDivisor: 64, Seed: 1}
	for _, name := range append(names, "cometa") {
		if _, err := bimodal.RunScheme(name, bimodal.Workload("Q1"), o); err != nil {
			t.Errorf("RunScheme(%q): %v", name, err)
		}
	}
}

// TestFacadeBiModalEntryPointsAgree checks every entry point that can run
// plain "bimodal" builds it the same way: scaled to the run length, as
// cmd/bmsim, the service and the figures do. At 40k accesses per core the
// scaled and paper-default builds report different hit rates, so an entry
// point that skipped the scaling would stand out.
func TestFacadeBiModalEntryPointsAgree(t *testing.T) {
	mix := bimodal.Workload("Q7")
	o := bimodal.Options{AccessesPerCore: 40_000, CacheDivisor: 4, Seed: 1, Workers: runtime.NumCPU()}
	ctx := context.Background()
	want := bimodal.RunBiModal(mix, o).Report
	named, err := bimodal.RunScheme("bimodal", mix, o)
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := bimodal.RunSchemeContext(ctx, "bimodal", mix, o)
	if err != nil {
		t.Fatal(err)
	}
	_, multi, err := bimodal.ANTTContext(ctx, "bimodal", mix, o)
	if err != nil {
		t.Fatal(err)
	}
	for label, got := range map[string]bimodal.RunResult{
		"RunScheme":        named,
		"RunSchemeContext": withCtx,
		"ANTTContext":      multi,
	} {
		if !reflect.DeepEqual(got.Report, want) {
			t.Errorf("%s(bimodal) report differs from RunBiModal:\ngot  hit %.4f latency %.1f\nwant hit %.4f latency %.1f",
				label, got.Report.HitRate(), got.Report.AvgLatency(), want.HitRate(), want.AvgLatency())
		}
	}
}

// TestFacadeAcceptsUnregisteredMix checks the name-based entry points take
// any mix, not only the registered tables: the factory needs just the
// core count.
func TestFacadeAcceptsUnregisteredMix(t *testing.T) {
	mix := bimodal.Workload("Q1")
	mix.Name = ""
	if _, err := bimodal.RunScheme("alloy", mix, facadeOptions()); err != nil {
		t.Errorf("RunScheme on an unnamed mix: %v", err)
	}
	if res := bimodal.RunBiModal(mix, facadeOptions()); res.Report.Accesses == 0 {
		t.Error("RunBiModal on an unnamed mix ran nothing")
	}
}

func TestRunSchemeContextFacade(t *testing.T) {
	res, err := bimodal.RunSchemeContext(context.Background(), "alloy",
		bimodal.Workload("Q13"), facadeOptions())
	if err != nil || res.Report.Scheme != "AlloyCache" {
		t.Errorf("RunSchemeContext: %v %v", res.Report.Scheme, err)
	}
	// Context runs match their context-free counterparts exactly.
	plain, err := bimodal.RunScheme("alloy", bimodal.Workload("Q13"), facadeOptions())
	if err != nil {
		t.Fatal(err)
	}
	res.Scheme, plain.Scheme = nil, nil
	if !reflect.DeepEqual(res, plain) {
		t.Error("RunSchemeContext result differs from RunScheme")
	}
}

func TestRunBiModalContextFacade(t *testing.T) {
	mix := bimodal.Workload("Q13")
	res, err := bimodal.RunBiModalContext(context.Background(), mix, facadeOptions())
	if err != nil || res.Report.Scheme != "BiModal" {
		t.Errorf("RunBiModalContext: %v %v", res.Report.Scheme, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := facadeOptions()
	o.AccessesPerCore = 50_000_000
	if _, err := bimodal.RunBiModalContext(ctx, mix, o); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled RunBiModalContext: err = %v, want context.Canceled", err)
	}
}

func TestANTTContextFacade(t *testing.T) {
	mix := bimodal.Workload("Q13")
	o := facadeOptions()
	o.Workers = runtime.NumCPU()
	antt, multi, err := bimodal.ANTTContext(context.Background(), "bimodal", mix, o)
	if err != nil || antt <= 0 || multi.Report.Scheme != "BiModal" {
		t.Errorf("ANTTContext: antt %v, scheme %v, err %v", antt, multi.Report.Scheme, err)
	}
	// Parallel standalone fan-out must agree with the serial ANTT facade.
	serial, err := bimodal.ANTT("bimodal", mix, facadeOptions())
	if err != nil {
		t.Fatal(err)
	}
	if antt != serial {
		t.Errorf("parallel ANTT %v != serial %v", antt, serial)
	}
}

func TestNewBiModalScheme(t *testing.T) {
	s := bimodal.NewBiModalScheme(4)
	if s.Name() != "BiModal" {
		t.Error("wrong scheme name")
	}
	if s.Core().Params().CacheBytes != 128<<20 {
		t.Error("wrong preset size")
	}
}
