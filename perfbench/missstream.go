package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"bimodal/internal/service"
	"bimodal/internal/sim"
	"bimodal/internal/spec"
	"bimodal/internal/workloads"
)

// miss-stream is a serial seed sweep of streaming, write-heavy quad-core
// mixes (lbm, libquantum, swim and company) under alloy and bimodal, each
// cell through service.RunCellSpec: a pooled Reset, the run and the
// marshal. The cache is 1/1024 of the preset, far smaller than the mixes'
// footprints, so misses, fills, writebacks and write drains dominate
// instead of way-locator hits, and simulators are Reset rather than built.
// It uses the layers paper-regen uses, the other way round: a hit-path
// gain that costs the miss path shows here.

var (
	missMixes   = []string{"Q4", "Q5", "Q17"}
	missSchemes = []string{"alloy", "bimodal"}
)

const (
	missAccessesPerCore = 10_000
	missCacheDivisor    = 1024
	// minMissCells keeps cell_ms_p90 at ten or more samples above it.
	minMissCells = 100
)

// missSpec returns cell i of the seed sweep: the (mix, scheme) pairs in
// turn, a new seed for every pass over them.
func missSpec(seed uint64, i int) (spec.RunSpec, error) {
	pairs := len(missMixes) * len(missSchemes)
	k := i % pairs
	rs := spec.RunSpec{
		Scheme:  missSchemes[k%len(missSchemes)],
		Mix:     missMixes[k/len(missSchemes)],
		Options: spec.Options{AccessesPerCore: missAccessesPerCore, CacheDivisor: missCacheDivisor},
		Seed:    seed*100_000 + uint64(i/pairs),
	}
	return rs.Canonical()
}

// missCheckStride spaces the sweep positions whose bytes are compared
// with a fresh sim.NewSim run: every 7th, which visits every (mix,
// scheme) pair, each position past the first pass on a Reset simulator.
const missCheckStride = 7

// specCell resolves a canonical spec into the replay cell the service
// would run.
func specCell(rs spec.RunSpec) (replayCell, error) {
	mix, err := workloads.MixForSpec(rs)
	if err != nil {
		return replayCell{}, err
	}
	f, err := sim.FactoryForSpec(rs, mix.Cores())
	if err != nil {
		return replayCell{}, err
	}
	o := sim.OptionsForSpec(rs)
	o.Workers = 1
	return replayCell{label: fmt.Sprintf("%s %s seed %d", rs.Mix, rs.Scheme, rs.Seed), scheme: rs.Scheme, mix: mix, factory: f, opts: o}, nil
}

// checkCellJSON asserts the invariants a cell's result JSON carries.
func checkCellJSON(r *report, label string, raw []byte) {
	var c service.CellResult
	if err := json.Unmarshal(raw, &c); err != nil {
		r.fail("%s: decoding result: %v", label, err)
		return
	}
	for name, v := range map[string]float64{"hit_rate": c.HitRate, "locator_hit_rate": c.LocatorHitRate,
		"meta_row_hit_rate": c.MetaRowHitRate, "stacked_row_hit_rate": c.StackedRowHitRate} {
		r.check(v >= 0 && v <= 1, "%s: %s %v outside [0, 1]", label, name, v)
	}
}

// freshCheck reruns rs on a freshly built simulator and compares its
// bytes with got, checking the report invariants on the way.
func freshCheck(ctx context.Context, r *report, rs spec.RunSpec, got []byte) error {
	c, err := specCell(rs)
	if err != nil {
		return err
	}
	s := sim.NewSim(c.mix, c.factory, c.opts)
	if err := s.Warmup(ctx); err != nil {
		return err
	}
	res, err := s.Measure(ctx)
	if err != nil {
		return err
	}
	checkInvariants(r, c, res)
	want, err := marshalCell(rs.Scheme, res)
	if err != nil {
		return err
	}
	r.check(string(want) == string(got), "%s: pooled RunCellSpec bytes differ from a fresh simulator", c.label)
	return nil
}

// missSetup is one miss-stream set-up: resolve the sweep's pairs and
// build the first pooled simulator of each in a fresh pool.
func missSetup(ctx context.Context, seed uint64) error {
	pool := sim.NewRunPool(0)
	for i := 0; i < len(missMixes)*len(missSchemes); i++ {
		rs, err := missSpec(seed, i)
		if err != nil {
			return err
		}
		c, err := specCell(rs)
		if err != nil {
			return err
		}
		pool.Put(pool.Get(c.scheme, c.mix, c.factory, c.opts))
	}
	return nil
}

func missStreamTimed(ctx context.Context, cfg config, r *report) error {
	setup, err := measureSetup(func() error { return missSetup(ctx, cfg.seed) })
	if err != nil {
		return err
	}
	r.set("setup_s", setup, "s")
	// raws keeps every cell's bytes for the checks after the timed
	// section.
	var raws [][]byte
	run := func(i int) (time.Duration, error) {
		rs, err := missSpec(cfg.seed, i)
		if err != nil {
			return 0, err
		}
		r.attempt(1)
		start := time.Now()
		raw, err := service.RunCellSpec(ctx, rs)
		d := time.Since(start)
		if err != nil {
			r.fail("cell %d: %v", i, err)
		}
		raws = append(raws, raw)
		return d, nil
	}
	// The first pass over the pairs builds the service's pooled
	// simulators; it is set-up, not timed.
	pairs := len(missMixes) * len(missSchemes)
	for i := 0; i < pairs; i++ {
		if _, err := run(i); err != nil {
			return err
		}
	}
	ts := beginTimed()
	var secs []float64
	for i := pairs; ctx.Err() == nil && (len(secs) < minMissCells || time.Since(ts.start) < cfg.seconds); i++ {
		d, err := run(i)
		if err != nil {
			return err
		}
		secs = append(secs, d.Seconds())
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	ts.finish(r, len(secs), int64(len(secs))*4*2*missAccessesPerCore)
	setLatencies(r, "cell_ms", secs)
	// A RunCellSpec call is the request a cluster worker serves.
	setLatencies(r, "req_ms", secs)
	for i, raw := range raws {
		if raw != nil {
			checkCellJSON(r, fmt.Sprintf("cell %d", i), raw)
		}
	}
	for i := 0; i < minMissCells; i += missCheckStride {
		rs, err := missSpec(cfg.seed, i)
		if err != nil {
			return err
		}
		r.attempt(1)
		if err := freshCheck(ctx, r, rs, raws[i]); err != nil {
			r.fail("fresh check of cell %d: %v", i, err)
		}
	}
	return nil
}

// missSampleCells is the traced replay's sample: three passes over the
// sweep's pairs, so the pool both builds and resets.
const missSampleCells = 18

func missStreamTraced(ctx context.Context, cfg config, r *report) error {
	tr := newTracer()
	rt0 := readRuntime()
	var cells []replayCell
	for i := 0; i < missSampleCells; i++ {
		rs, err := missSpec(cfg.seed, i)
		if err != nil {
			return err
		}
		c, err := specCell(rs)
		if err != nil {
			return err
		}
		if i < len(missMixes)*len(missSchemes) {
			// The replay path must agree with the service on each pair.
			r.attempt(1)
			raw, err := service.RunCellSpec(ctx, rs)
			if err != nil {
				return err
			}
			if err := freshCheck(ctx, r, rs, raw); err != nil {
				return err
			}
		}
		cells = append(cells, c)
	}
	if err := replayLayers(ctx, cfg, r, tr, cells); err != nil {
		return err
	}
	setRuntimeLayer(r, rt0, readRuntime())
	return fillLayers(r, tr, cfg)
}
