// Package bench registers the hot-path microbenchmarks once, shared by
// three harnesses: the `go test -bench` benchmarks in bench_test.go, the
// exact allocation pins in this package's tests, and the bmbench same-host
// A/B gate (which times bench_test.go's benchmarks from two builds). Every
// case is a setup that returns a loop over its op, so the benchmark times
// and the pin counts exactly the same operation.
package bench

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	bimodal "bimodal"
	"bimodal/internal/addr"
	"bimodal/internal/core"
	"bimodal/internal/dram"
	"bimodal/internal/dramcache"
	"bimodal/internal/memctrl"
	"bimodal/internal/sim"
	"bimodal/internal/spec"
	"bimodal/internal/trace"
	"bimodal/internal/workloads"
	"bimodal/internal/xrand"
)

// Case is one registered microbenchmark.
type Case struct {
	// Name is the identifier used by -filter and the allocation pins; it
	// matches the Benchmark<Name> function in bench_test.go.
	Name string
	// Info is a one-line description for bmbench -list.
	Info string
	// Setup builds the case's state and returns run, which performs the
	// case's op n times. The loop lives inside run, so a nanosecond op is
	// timed without an indirect call per iteration. Failures inside run
	// report through tb.
	Setup func(tb testing.TB) (run func(n int))
}

// Run is the benchmark body: set up, then time b.N ops. A collection
// between the two keeps a cycle that setup's allocations started from
// running, and being timed, alongside the ops.
func (c Case) Run(b *testing.B) {
	run := c.Setup(b)
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}

// Cases returns every registered case, in a fixed order.
func Cases() []Case { return cases }

// ByName returns the case registered under name.
func ByName(name string) (Case, bool) {
	for _, c := range cases {
		if c.Name == name {
			return c, true
		}
	}
	return Case{}, false
}

// Run executes the case registered under name on b; the adapter used by
// the `go test -bench` wrappers.
func Run(b *testing.B, name string) {
	b.Helper()
	c, ok := ByName(name)
	if !ok {
		b.Fatalf("bench: no case %q registered", name)
	}
	c.Run(b)
}

var cases = []Case{
	{"BiModalAccess", "end-to-end Bi-Modal scheme access (mixed-locality workload)", biModalAccess},
	{"BiModalAccessMissHeavy", "Bi-Modal access on a streaming, miss-dominated workload", biModalAccessMissHeavy},
	{"AlloyAccess", "end-to-end Alloy baseline access", alloyAccess},
	{"CoreCacheAccess", "functional Bi-Modal cache access (no DRAM timing)", coreCacheAccess},
	{"WayLocatorLookup", "way-locator SRAM probe", wayLocatorLookup},
	{"DRAMChannelAccess", "DRAM bank timing state machine", dramChannelAccess},
	{"MemctrlRead", "memory-controller demand read (interleave + bank)", memctrlRead},
	{"TraceGeneration", "synthetic access-stream generation", traceGeneration},
	{"EndToEndMix", "complete small multiprogrammed run via the public facade", endToEndMix},
	{"EndToEndMixPooled", "the EndToEndMix cell recycled through a RunPool (steady-state Reset)", endToEndMixPooled},
	{"SweepColdWarmup", "10-cell same-prefix sweep, every cell warming from cold", sweepColdWarmup},
	{"SweepWarmRestore", "10-cell same-prefix sweep warming once via snapshot restore", sweepWarmRestore},
	{"SweepPooled", "10-seed one-cell sweep recycling a single pooled simulator", sweepPooled},
	{"TraceNextKVStore", "datacenter kvstore profile stream generation", traceNextCase("kvstore")},
	{"TraceNextWebserve", "bursty webserve profile stream generation", traceNextCase("webserve")},
	{"TraceNextScan", "analytics scan profile stream generation", traceNextCase("scan")},
	{"TraceNextInterleave4", "4-tenant weighted interleaver with a shared hot region", traceNextCase("interleave4")},
}

// schemeAccess returns the loop over one end-to-end scheme access
// (functional cache + way locator + DRAM timing) driven by a synthetic
// profile.
func schemeAccess(s dramcache.Scheme, profile string) func(int) {
	g := trace.NewSynthetic(trace.MustProfile(profile), 0, 1)
	now := int64(0)
	return func(n int) {
		for i := 0; i < n; i++ {
			a := g.Next()
			now += int64(a.Gap)
			s.Access(dramcache.Request{Addr: a.Addr, Write: a.Write}, now)
		}
	}
}

// biModalAccess measures one end-to-end Bi-Modal access on a
// mixed-locality workload.
func biModalAccess(testing.TB) func(int) {
	cfg := dramcache.DefaultConfig(4)
	cfg.CacheBytes = 32 << 20
	return schemeAccess(dramcache.NewBiModal(cfg), "soplex")
}

// biModalAccessMissHeavy stresses the miss path: a streaming, low-locality
// workload (lbm: long sequential runs over a footprint far larger than the
// cache) makes most accesses capacity misses, exercising victim selection,
// the eviction scratch buffer, writeback scheduling and the off-chip fetch
// path rather than the hit fast path.
func biModalAccessMissHeavy(testing.TB) func(int) {
	cfg := dramcache.DefaultConfig(4)
	cfg.CacheBytes = 8 << 20
	return schemeAccess(dramcache.NewBiModal(cfg), "lbm")
}

// alloyAccess measures the baseline's access path.
func alloyAccess(testing.TB) func(int) {
	cfg := dramcache.DefaultConfig(4)
	cfg.CacheBytes = 32 << 20
	return schemeAccess(dramcache.NewAlloy(cfg), "soplex")
}

// coreCacheAccess measures the functional Bi-Modal cache alone.
func coreCacheAccess(testing.TB) func(int) {
	p := core.DefaultParams(32 << 20)
	c := core.NewCache(p, core.NewWayLocator(14, p.BigBlock))
	g := trace.NewSynthetic(trace.MustProfile("omnetpp"), 0, 1)
	return func(n int) {
		for i := 0; i < n; i++ {
			a := g.Next()
			c.Access(a.Addr, a.Write)
		}
	}
}

// wayLocatorLookup measures the SRAM locator probe.
func wayLocatorLookup(testing.TB) func(int) {
	wl := core.NewWayLocator(14, 512)
	r := xrand.New(1)
	for i := 0; i < 10000; i++ {
		wl.Insert(addr.Phys(r.Uint64n(1<<30))&^63, r.Bool(0.5), r.Intn(18))
	}
	i := uint64(0)
	return func(n int) {
		for end := i + uint64(n); i < end; i++ {
			wl.Lookup(addr.Phys(i*512) & (1<<30 - 1))
		}
	}
}

// dramChannelAccess measures the bank timing state machine.
func dramChannelAccess(testing.TB) func(int) {
	ch := dram.NewChannel(dram.StackedTiming(), 1, 8)
	r := xrand.New(2)
	now := int64(0)
	return func(n int) {
		for i := 0; i < n; i++ {
			l := addr.Location{Bank: r.Intn(8), Row: r.Uint64n(4096), Column: r.Uint64n(32) * 64}
			now += 20
			ch.Access(dram.OpRead, l, now, 64)
		}
	}
}

// memctrlRead measures a full controller read (interleave + bank).
func memctrlRead(testing.TB) func(int) {
	c := memctrl.New(memctrl.StackedConfig(2))
	r := xrand.New(3)
	now := int64(0)
	return func(n int) {
		for i := 0; i < n; i++ {
			now += 20
			c.Read(addr.Phys(r.Uint64n(1<<30))&^63, now, 64)
		}
	}
}

// traceGeneration measures synthetic stream production.
func traceGeneration(testing.TB) func(int) {
	g := trace.NewSynthetic(trace.MustProfile("mcf"), 0, 4)
	return func(n int) {
		for i := 0; i < n; i++ {
			g.Next()
		}
	}
}

// traceNextCase measures the per-access cost of one traffic-model
// generator: the datacenter profiles and the tenant interleaver are on
// every simulated access's critical path, so these track the workload
// layer the way TraceGeneration tracks the classic SPEC profiles.
func traceNextCase(kind string) func(testing.TB) func(int) {
	return func(testing.TB) func(int) {
		var g trace.Generator
		switch kind {
		case "interleave4":
			streams := []trace.TenantStream{
				{Prof: trace.MustProfile("kvstore"), Weight: 1},
				{Prof: trace.MustProfile("kvstore"), Weight: 2},
				{Prof: trace.MustProfile("webserve"), Weight: 1},
				{Prof: trace.MustProfile("scan"), Weight: 1},
			}
			g = trace.NewInterleaver("bench-dc4", streams, 0, 0.10, 64, 7)
		default:
			g = trace.NewSynthetic(trace.MustProfile(kind), 0, 4)
		}
		return func(n int) {
			for i := 0; i < n; i++ {
				g.Next()
			}
		}
	}
}

// endToEndMix measures a complete small multiprogrammed run via the public
// facade.
func endToEndMix(testing.TB) func(int) {
	mix := bimodal.Workload("Q7")
	o := bimodal.Options{AccessesPerCore: 2000, CacheDivisor: 16, Seed: 1}
	return repeat(func() { bimodal.RunBiModal(mix, o) })
}

// repeat returns the loop over op, for ops long enough that calling one
// through a func value costs nothing measurable.
func repeat(op func()) func(int) {
	return func(n int) {
		for i := 0; i < n; i++ {
			op()
		}
	}
}

// endToEndMixPooled runs the same cell as endToEndMix but draws the
// simulator from a RunPool, varying the seed each op the way a sweep does.
// After the first op every run is an in-place Reset of the same
// simulator, so the delta against EndToEndMix is exactly what pooling
// buys: construction (metadata arrays, Zipf CDFs, generators) drops out
// and only array clears plus the access loop remain.
func endToEndMixPooled(tb testing.TB) func(int) {
	mix := bimodal.Workload("Q7")
	o := bimodal.Options{AccessesPerCore: 2000, CacheDivisor: 16, Seed: 1}
	factory := sim.BiModalFactory(mix.Cores(), o)
	pool := sim.NewRunPool(1)
	ctx := context.Background()
	return repeat(func() {
		s := pool.Get("bimodal", mix, factory, o)
		if err := s.Warmup(ctx); err != nil {
			tb.Fatal(err)
		}
		if _, err := s.Measure(ctx); err != nil {
			tb.Fatal(err)
		}
		pool.Put(s)
		o.Seed++
	})
}

// --- warm-state checkpointing: sweep warmup amortization ---
//
// The two sweep cases run the same 10-cell workload — cells identical up
// to measured length, so they share one warmup prefix hash — first the
// pre-snapshot way (every cell warms from cold), then through the
// snapshot seam (warm once, seal, fork restored engines). The pair
// quantifies what internal/snapshot buys a same-prefix sweep; the
// warmup window is sized so warmup dominates, as it does in real
// convergence sweeps. TestWarmSweepBeatsColdWarmup pins the ratio >= 2x.

// warmSweepSpecs returns 10 cells differing only in measured length.
func warmSweepSpecs() []spec.RunSpec {
	var specs []spec.RunSpec
	for i := 1; i <= 10; i++ {
		specs = append(specs, spec.RunSpec{
			Scheme: "alloy",
			Mix:    "Q1",
			Options: spec.Options{
				AccessesPerCore: int64(100 * i),
				WarmupPerCore:   80_000,
				CacheDivisor:    64,
			},
			Seed: 7,
		})
	}
	return specs
}

// runSweepColdWarmup executes the sweep with per-cell warmup.
func runSweepColdWarmup() error {
	ctx := context.Background()
	for _, rs := range warmSweepSpecs() {
		mix, err := workloads.MixForSpec(rs)
		if err != nil {
			return err
		}
		factory, err := sim.FactoryForSpec(rs, mix.Cores())
		if err != nil {
			return err
		}
		so := sim.OptionsForSpec(rs)
		so.Workers = 1
		s := sim.NewSim(mix, factory, so)
		if err := s.Warmup(ctx); err != nil {
			return err
		}
		if _, err := s.Measure(ctx); err != nil {
			return err
		}
	}
	return nil
}

// runSweepWarmRestore executes the sweep warming exactly once: the first
// cell warms, seals a snapshot, and measures on its own warm state; every
// other cell forks a restored engine.
func runSweepWarmRestore() error {
	ctx := context.Background()
	specs := warmSweepSpecs()
	prefix, ok, err := specs[0].PrefixHash()
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("bench: sweep specs have no warmup prefix")
	}
	mix, err := workloads.ByName(specs[0].Mix)
	if err != nil {
		return err
	}
	factory, err := sim.FactoryForSpec(specs[0], mix.Cores())
	if err != nil {
		return err
	}
	var blob []byte
	for i, rs := range specs {
		so := sim.OptionsForSpec(rs)
		so.Workers = 1
		s := sim.NewSim(mix, factory, so)
		if i == 0 {
			if err := s.Warmup(ctx); err != nil {
				return err
			}
			blob = s.Snapshot(prefix)
		} else if err := s.Restore(blob, prefix); err != nil {
			return err
		}
		if _, err := s.Measure(ctx); err != nil {
			return err
		}
	}
	return nil
}

// sweepColdWarmup measures the pre-snapshot sweep path.
func sweepColdWarmup(tb testing.TB) func(int) {
	return repeat(func() {
		if err := runSweepColdWarmup(); err != nil {
			tb.Fatal(err)
		}
	})
}

// sweepWarmRestore measures the snapshot-amortized sweep path.
func sweepWarmRestore(tb testing.TB) func(int) {
	return repeat(func() {
		if err := runSweepWarmRestore(); err != nil {
			tb.Fatal(err)
		}
	})
}

// runSweepPooled executes a 10-seed sweep of one alloy/Q1 cell through a
// shared RunPool — the pool's designed case: cells differing only in seed
// share one geometry key, so one simulator serves the whole sweep.
func runSweepPooled(pool *sim.RunPool) error {
	ctx := context.Background()
	mix := workloads.MustByName("Q1")
	factory, err := sim.FactoryForSpec(spec.RunSpec{Scheme: "alloy", Mix: mix.Name}, mix.Cores())
	if err != nil {
		return err
	}
	for seed := uint64(1); seed <= 10; seed++ {
		o := sim.Options{AccessesPerCore: 1000, CacheDivisor: 64, Seed: seed}
		s := pool.Get("alloy", mix, factory, o)
		if err := s.Warmup(ctx); err != nil {
			return err
		}
		if _, err := s.Measure(ctx); err != nil {
			return err
		}
		pool.Put(s)
	}
	return nil
}

// sweepPooled measures the pooled seed-sweep path; the pool outlives the
// op, so every op after the first runs at steady state.
func sweepPooled(tb testing.TB) func(int) {
	pool := sim.NewRunPool(1)
	return repeat(func() {
		if err := runSweepPooled(pool); err != nil {
			tb.Fatal(err)
		}
	})
}
