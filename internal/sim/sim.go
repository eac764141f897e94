// Package sim assembles full-system simulations: a workload mix, a DRAM
// cache scheme, the multi-core engine and (optionally) the next-N-lines
// prefetcher, plus the standalone runs needed for ANTT.
package sim

import (
	"context"

	"bimodal/internal/core"
	"bimodal/internal/cpu"
	"bimodal/internal/dramcache"
	"bimodal/internal/energy"
	"bimodal/internal/engine"
	"bimodal/internal/trace"
	"bimodal/internal/workloads"
)

// Factory builds a fresh scheme instance from a configuration. Every run
// (multiprogrammed or standalone) gets its own instance so cache state
// never leaks between runs.
type Factory func(cfg dramcache.Config) dramcache.Scheme

// Options configures a run.
type Options struct {
	// AccessesPerCore is the per-core replay quota.
	AccessesPerCore int64
	// Seed decorrelates reruns (generators, replacement randomness).
	Seed uint64
	// CacheBytes overrides the preset DRAM cache size when non-zero.
	CacheBytes uint64
	// CacheDivisor scales the preset cache size down when CacheBytes is
	// zero. The paper warms 128-512MB caches with multi-billion-access
	// traces; affordable replays reach the same steady state (footprint
	// much larger than capacity, evictions training the predictors) by
	// shrinking capacity proportionally instead. 0 or 1 disables.
	CacheDivisor uint64
	// WarmupPerCore is the unmeasured warmup quota preceding the measured
	// window (the paper fast-forwards before collecting statistics).
	// 0 selects AccessesPerCore (1:1 warmup); negative disables warmup.
	WarmupPerCore int64
	// PrefetchN enables the next-N-lines prefetcher when positive.
	PrefetchN int
	// Workers bounds the fan-out of the independent simulations inside
	// one call (the per-benchmark standalone runs of ANTTContext).
	// 0 or 1 runs them serially; results are collected in mix order either
	// way, so the output is identical at any worker count.
	Workers int
}

// normalize fills defaults.
func (o Options) normalize() Options {
	if o.AccessesPerCore == 0 {
		o.AccessesPerCore = 200_000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.WarmupPerCore == 0 {
		o.WarmupPerCore = o.AccessesPerCore
	}
	if o.WarmupPerCore < 0 {
		o.WarmupPerCore = 0
	}
	return o
}

// ConfigFor derives the scheme configuration for a mix under the options.
func ConfigFor(mix workloads.Mix, o Options) dramcache.Config {
	o = o.normalize()
	cfg := dramcache.DefaultConfig(mix.Cores())
	if o.CacheBytes != 0 {
		cfg.CacheBytes = o.CacheBytes
	} else if o.CacheDivisor > 1 {
		cfg.CacheBytes /= o.CacheDivisor
	}
	cfg.Seed = o.Seed
	return cfg
}

// RunResult reports one multiprogrammed run.
type RunResult struct {
	Mix     string
	PerCore []cpu.CoreResult
	// PerTenant attributes the measured window to tenant streams, indexed
	// by tenant ID; nil for single-tenant mixes.
	PerTenant []cpu.TenantResult
	Report    dramcache.Report
	Energy    energy.Breakdown
	// Scheme retains the instance for scheme-specific inspection (e.g.
	// the Bi-Modal core cache).
	Scheme dramcache.Scheme
}

// TotalCycles returns the longest core runtime.
func (r RunResult) TotalCycles() int64 {
	var m int64
	for _, c := range r.PerCore {
		if c.Cycles > m {
			m = c.Cycles
		}
	}
	return m
}

// Run executes the mix on a fresh scheme from factory.
func Run(mix workloads.Mix, factory Factory, o Options) RunResult {
	res, err := RunContext(context.Background(), mix, factory, o)
	if err != nil {
		// Background contexts never cancel; any error here is a bug.
		panic(err)
	}
	return res
}

// RunContext executes the mix on a fresh scheme from factory, honoring
// cancellation: when ctx ends mid-run the simulation stops within a few
// thousand accesses and ctx.Err() is returned. The result is a pure
// function of (mix, factory, o) — never of ctx or timing.
func RunContext(ctx context.Context, mix workloads.Mix, factory Factory, o Options) (RunResult, error) {
	s := NewSim(mix, factory, o)
	if err := s.Warmup(ctx); err != nil {
		return RunResult{}, err
	}
	return s.Measure(ctx)
}

// RunStandaloneContext runs each benchmark of the mix alone on the same
// machine configuration (fresh scheme per benchmark) and returns the
// per-core results in mix order — the C^SP terms of ANTT. It stops
// promptly when ctx ends. The standalone runs are fully independent
// (fresh scheme and generator each), so they fan out over o.Workers
// goroutines; results land in mix order regardless of worker count,
// keeping parallel output identical to serial.
func RunStandaloneContext(ctx context.Context, mix workloads.Mix, factory Factory, o Options) ([]cpu.CoreResult, error) {
	o = o.normalize()
	return engine.Map(ctx, o.Workers, mix.Cores(), func(ctx context.Context, i int) (cpu.CoreResult, error) {
		return standaloneOne(ctx, mix, factory, o, i)
	})
}

// soloGenerator re-labels a generator for standalone runs (core 0).
type soloGenerator struct{ trace.Generator }

// ANTTContext runs the mix multiprogrammed and each benchmark standalone,
// returning the ANTT value and the multiprogrammed result; it stops
// promptly when ctx ends. The multiprogrammed run and the per-benchmark
// standalone runs are all independent simulations, so they fan out over
// o.Workers goroutines as one cell each (engine.Map runs them serially,
// in index order, at one worker).
func ANTTContext(ctx context.Context, mix workloads.Mix, factory Factory, o Options) (float64, RunResult, error) {
	o = o.normalize()
	var multi RunResult
	single := make([]cpu.CoreResult, mix.Cores())
	// Cell 0 is the multiprogrammed run; cells 1..n are the standalones.
	_, err := engine.Map(ctx, o.Workers, mix.Cores()+1, func(ctx context.Context, i int) (struct{}, error) {
		if i == 0 {
			m, err := RunContext(ctx, mix, factory, o)
			if err != nil {
				return struct{}{}, err
			}
			multi = m
			return struct{}{}, nil
		}
		out, err := standaloneOne(ctx, mix, factory, o, i-1)
		if err != nil {
			return struct{}{}, err
		}
		single[i-1] = out
		return struct{}{}, nil
	})
	if err != nil {
		return 0, RunResult{}, err
	}
	return cpu.ANTT(multi.PerCore, single), multi, nil
}

// standaloneOne runs benchmark i of the mix alone (one ANTT C^SP term).
func standaloneOne(ctx context.Context, mix workloads.Mix, factory Factory, o Options, i int) (cpu.CoreResult, error) {
	cfg := ConfigFor(mix, o)
	g := mix.Generators(o.Seed)[i]
	scheme := factory(cfg)
	var pf *cpu.Prefetcher
	if o.PrefetchN > 0 {
		pf = cpu.NewPrefetcher(o.PrefetchN, 1)
	}
	eng := cpu.NewEngine(scheme, []trace.Generator{soloGenerator{Generator: g}}, cpu.DefaultCoreConfig(), pf)
	res, err := eng.RunMeasuredContext(ctx, o.WarmupPerCore, o.AccessesPerCore)
	if err != nil {
		return cpu.CoreResult{}, err
	}
	r := res[0]
	r.Core = i
	return r, nil
}

// ScaledCoreParams returns the paper's core parameters for a cache size
// with the adaptation interval scaled to the run length: the paper adapts
// every 1M cache accesses over multi-billion-access traces; shorter replays
// keep the same number of adaptation opportunities by scaling the interval
// to 1/16 of the total expected accesses (min 10k).
func ScaledCoreParams(cacheBytes uint64, cores int, accessesPerCore int64) core.Params {
	p := core.DefaultParams(cacheBytes)
	interval := accessesPerCore * int64(cores) / 16
	if interval < 10_000 {
		interval = 10_000
	}
	if interval > p.AdaptInterval {
		interval = p.AdaptInterval
	}
	p.AdaptInterval = interval
	// Trace-length compensation (documented in DESIGN.md): the paper
	// trains a 2^16-entry predictor from ~4%-sampled evictions over
	// billions of accesses. Short replays keep the same *training density*
	// (updates per counter) by sampling 1/16 of sets and using a 2^12-entry
	// table; the structures and policies are unchanged.
	p.SampleShift = 4
	p.PredictorBits = 12
	return p
}

// BiModalFactory returns a factory building BiModal with the adaptation
// interval scaled for the run length and any extra options applied.
func BiModalFactory(cores int, o Options, opts ...dramcache.BiModalOption) Factory {
	o = o.normalize()
	return func(cfg dramcache.Config) dramcache.Scheme {
		p := ScaledCoreParams(cfg.CacheBytes, cores, o.AccessesPerCore)
		all := append([]dramcache.BiModalOption{dramcache.WithCoreParams(p)}, opts...)
		return dramcache.NewBiModal(cfg, all...)
	}
}
