package sim

import (
	"context"
	"testing"

	"bimodal/internal/dramcache"
	"bimodal/internal/spec"
	"bimodal/internal/workloads"
)

// quick returns options small enough for unit tests.
func quick() Options {
	return Options{AccessesPerCore: 4000, Seed: 3, CacheBytes: 4 << 20}
}

// presetFactory builds the named scheme with its paper defaults
// (Descriptor.Factory, no run-length scaling): the build every sim golden
// was recorded with.
func presetFactory(name string) Factory {
	d, err := spec.Lookup(name)
	if err != nil {
		panic(err)
	}
	return Factory(d.Factory())
}

func TestRunProducesConsistentResult(t *testing.T) {
	mix := workloads.MustByName("Q7")
	f := presetFactory("bimodal")
	res := Run(mix, f, quick())
	if res.Mix != "Q7" || len(res.PerCore) != 4 {
		t.Fatalf("result: %+v", res.Mix)
	}
	for _, c := range res.PerCore {
		if c.Accesses != 4000 || c.Cycles <= 0 {
			t.Errorf("core %d: %+v", c.Core, c)
		}
	}
	if res.Report.Accesses < 16000 {
		t.Errorf("scheme accesses = %d, want >= 16000 (finished cores keep running)", res.Report.Accesses)
	}
	if res.Energy.Total() <= 0 {
		t.Error("zero energy")
	}
	if res.TotalCycles() <= 0 {
		t.Error("zero total cycles")
	}
}

func TestRunDeterministic(t *testing.T) {
	mix := workloads.MustByName("Q1")
	f := presetFactory("alloy")
	a := Run(mix, f, quick())
	b := Run(mix, f, quick())
	if a.TotalCycles() != b.TotalCycles() || a.Report.Hits != b.Report.Hits {
		t.Error("runs with identical options differ")
	}
}

func TestStandaloneFasterThanShared(t *testing.T) {
	mix := workloads.MustByName("Q1")
	f := presetFactory("bimodal")
	o := quick()
	multi := Run(mix, f, o)
	single, err := RunStandaloneContext(context.Background(), mix, f, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(single) != 4 {
		t.Fatalf("standalone results = %d", len(single))
	}
	slower := 0
	for i := range single {
		if multi.PerCore[i].Cycles > single[i].Cycles {
			slower++
		}
	}
	if slower < 3 {
		t.Errorf("only %d/4 benchmarks slowed by sharing", slower)
	}
}

func TestANTTAboveOne(t *testing.T) {
	mix := workloads.MustByName("Q3")
	f := presetFactory("bimodal")
	antt, res, err := ANTTContext(context.Background(), mix, f, quick())
	if err != nil {
		t.Fatal(err)
	}
	if antt <= 1.0 {
		t.Errorf("ANTT = %.3f; sharing should slow programs", antt)
	}
	if res.Report.Accesses == 0 {
		t.Error("empty multi run")
	}
}

func TestScaledCoreParams(t *testing.T) {
	p := ScaledCoreParams(128<<20, 4, 100_000)
	if p.AdaptInterval != 25_000 {
		t.Errorf("interval = %d, want 25000", p.AdaptInterval)
	}
	p = ScaledCoreParams(128<<20, 4, 1_000)
	if p.AdaptInterval != 10_000 {
		t.Errorf("interval floor = %d", p.AdaptInterval)
	}
	p = ScaledCoreParams(128<<20, 16, 10_000_000)
	if p.AdaptInterval != 1_000_000 {
		t.Errorf("interval cap = %d", p.AdaptInterval)
	}
}

func TestBiModalFactoryAppliesScaledInterval(t *testing.T) {
	o := quick()
	f := BiModalFactory(4, o)
	cfg := dramcache.DefaultConfig(4)
	cfg.CacheBytes = o.CacheBytes
	s := f(cfg).(*dramcache.BiModal)
	if s.Core().Params().AdaptInterval != 10_000 {
		t.Errorf("interval = %d", s.Core().Params().AdaptInterval)
	}
}

func TestPrefetcherIntegration(t *testing.T) {
	mix := workloads.MustByName("Q2")
	f := presetFactory("bimodal")
	o := quick()
	o.PrefetchN = 1
	res := Run(mix, f, o)
	// Prefetches add scheme accesses beyond the demand traffic.
	noPf := Run(mix, f, quick())
	if res.Report.Accesses <= noPf.Report.Accesses {
		t.Errorf("accesses with prefetch = %d, without = %d", res.Report.Accesses, noPf.Report.Accesses)
	}
}

func TestConfigForOverride(t *testing.T) {
	mix := workloads.MustByName("Q1")
	cfg := ConfigFor(mix, Options{CacheBytes: 64 << 20, Seed: 9})
	if cfg.CacheBytes != 64<<20 || cfg.Seed != 9 {
		t.Errorf("config: %+v", cfg)
	}
	cfg = ConfigFor(mix, Options{})
	if cfg.CacheBytes != 128<<20 {
		t.Errorf("preset not applied: %+v", cfg)
	}
}
