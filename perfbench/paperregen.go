package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"bimodal/internal/dramcache"
	"bimodal/internal/experiments"
	"bimodal/internal/sim"
	"bimodal/internal/spec"
	"bimodal/internal/workloads"
)

// paper-regen regenerates five artifacts through experiments.ByID(..).Run
// with two engine workers. Each artifact runs at a reduced scale that is
// still larger than cmd/paper -quick: fig8b and fig9b get 40k accesses per
// core, enough for BiModal's adaptation to separate it from fixed-512B,
// which -quick's 8k does not. The cells build a fresh simulator each over
// the preset geometries (cache divisor 4) and span 1- (ANTT standalone),
// 4-, 8- and 16-core shapes.

// regenWorkers is the engine pool of the timed regeneration: one worker
// per CPU of the two-CPU host the benchmark targets.
const regenWorkers = 2

// regenArtifact is one regenerated artifact and its scale.
type regenArtifact struct {
	id   string
	opts experiments.Options
}

var regenPlan = []regenArtifact{
	{id: "fig1", opts: experiments.Options{StreamAccesses: 400_000, MaxMixes: 2}},
	{id: "fig7", opts: experiments.Options{AccessesPerCore: 16_000, MaxMixes: 1}},
	{id: "fig8b", opts: experiments.Options{AccessesPerCore: 40_000, MaxMixes: 3}},
	{id: "fig9b", opts: experiments.Options{AccessesPerCore: 40_000, MaxMixes: 3}},
	{id: "ext-tenant", opts: experiments.Options{AccessesPerCore: 40_000, MaxMixes: 2}},
}

// minRegenCells is the least number of cells a timed run completes, so
// cell_ms_p90 has at least ten samples above it.
const minRegenCells = 100

// regenSimOpts are the sim options the experiments derive for an
// artifact: capacity at 1/4 of the presets, 1:1 warmup.
func regenSimOpts(o experiments.Options, seed uint64) sim.Options {
	return sim.Options{AccessesPerCore: o.AccessesPerCore, WarmupPerCore: o.AccessesPerCore, Seed: seed, CacheDivisor: 4}
}

// plannedAccesses returns the cells one artifact runs and the accesses
// they simulate: warmup and measured quotas of all cores, ANTT standalone
// runs included, and fig1's stream accesses. The timed run checks the
// cell count against what the experiment reports.
func plannedAccesses(a regenArtifact) (cells int, accesses int64, err error) {
	first := func(ms []workloads.Mix) []workloads.Mix { return ms[:min(len(ms), a.opts.MaxMixes)] }
	run := func(m workloads.Mix) int64 { return int64(m.Cores()) * 2 * a.opts.AccessesPerCore }
	quad, err := workloads.ForCores(4)
	if err != nil {
		return 0, 0, err
	}
	switch a.id {
	case "fig1": // seven block sizes per mix
		cells = 7 * len(first(quad))
		accesses = int64(cells) * a.opts.StreamAccesses
	case "fig7": // two schemes per mix, each one run plus one standalone run per core
		for _, cores := range []int{4, 8, 16} {
			ms, err := workloads.ForCores(cores)
			if err != nil {
				return 0, 0, err
			}
			for _, m := range first(ms) {
				cells += 2
				accesses += 2 * 2 * run(m)
			}
		}
	case "fig8b": // alloy, fixed-512B and bimodal per mix
		for _, m := range first(quad) {
			cells += 3
			accesses += 3 * run(m)
		}
	case "fig9b": // co-located and separate metadata per mix
		for _, m := range first(quad) {
			cells += 2
			accesses += 2 * run(m)
		}
	case "ext-tenant": // one cell per mix runs BiModal and Alloy
		for _, m := range first(workloads.DatacenterMixes()) {
			cells++
			accesses += 2 * run(m)
		}
	default:
		return 0, 0, fmt.Errorf("no access plan for %s", a.id)
	}
	return cells, accesses, nil
}

// regenRound is one regeneration of every artifact.
type regenRound struct {
	tables   map[string]string
	wall     map[string]time.Duration
	cellSecs []float64
	busy     time.Duration // summed cell time
	total    time.Duration
}

// regenerate runs every artifact of the plan once with workers engine
// workers.
func regenerate(ctx context.Context, seed uint64, workers int) (regenRound, error) {
	rd := regenRound{tables: map[string]string{}, wall: map[string]time.Duration{}}
	var mu sync.Mutex
	start := time.Now()
	for _, a := range regenPlan {
		e, err := experiments.ByID(a.id)
		if err != nil {
			return rd, err
		}
		o := a.opts
		o.Seed = seed
		o.Workers = workers
		o.OnCell = func(_ int, _ string, d time.Duration) {
			mu.Lock()
			rd.cellSecs = append(rd.cellSecs, d.Seconds())
			rd.busy += d
			mu.Unlock()
		}
		t := time.Now()
		tbl, err := e.Run(ctx, o)
		if err != nil {
			return rd, fmt.Errorf("%s: %w", a.id, err)
		}
		rd.wall[a.id] = time.Since(t)
		rd.tables[a.id] = tbl.String()
	}
	rd.total = time.Since(start)
	return rd, nil
}

// regenSample is the fixed sample of paper-regen cells the output checks
// and the traced replay run through the experiments' own factories: one
// 16-core and one 8-core fig7 cell, fig8b's three schemes on Q1, fig9b's
// co-located variant and ext-tenant's first datacenter mix.
func regenSample(seed uint64) ([]replayCell, error) {
	fig7, fig8b := regenPlan[1].opts, regenPlan[2].opts
	s7, s8 := regenSimOpts(fig7, seed), regenSimOpts(fig8b, seed)
	alloy := spec.Baselines()[0].Factory()
	q1, err := workloads.ByName("Q1")
	if err != nil {
		return nil, err
	}
	e1, err := workloads.ByName("E1")
	if err != nil {
		return nil, err
	}
	s1, err := workloads.ByName("S1")
	if err != nil {
		return nil, err
	}
	dc := workloads.DatacenterMixes()[0]
	return []replayCell{
		{label: "fig7 S1 bimodal", scheme: "bimodal", mix: s1, factory: sim.BiModalFactory(16, s7), opts: s7},
		{label: "fig7 E1 alloy", scheme: "alloy", mix: e1, factory: alloy, opts: s7},
		{label: "fig8b Q1 alloy", scheme: "alloy", mix: q1, factory: alloy, opts: s8},
		{label: "fig8b Q1 fixed-512B", scheme: "fixed-512B", mix: q1, factory: sim.BiModalFactory(4, s8, dramcache.FixedBigBlocks()), opts: s8},
		{label: "fig8b Q1 bimodal", scheme: "bimodal", mix: q1, factory: sim.BiModalFactory(4, s8), opts: s8},
		{label: "fig9b Q1 co-located", scheme: "co-located", mix: q1,
			factory: sim.BiModalFactory(4, s8, dramcache.CoLocatedMetadata(), dramcache.WithName("BiModalCoMeta")), opts: s8},
		{label: "ext-tenant " + dc.Name + " bimodal", scheme: "bimodal", mix: dc, factory: sim.BiModalFactory(dc.Cores(), s8), opts: s8},
	}, nil
}

// regenSetup is one paper-regen set-up: resolve the artifacts and build
// the first simulator of each core shape the regeneration runs.
func regenSetup(seed uint64) error {
	for _, a := range regenPlan {
		if _, err := experiments.ByID(a.id); err != nil {
			return err
		}
	}
	so := regenSimOpts(regenPlan[1].opts, seed)
	for _, cores := range []int{4, 8, 16} {
		ms, err := workloads.ForCores(cores)
		if err != nil {
			return err
		}
		sim.NewSim(ms[0], sim.BiModalFactory(cores, so), so)
	}
	return nil
}

func paperRegenTimed(ctx context.Context, cfg config, r *report) error {
	setup, err := measureSetup(func() error { return regenSetup(cfg.seed) })
	if err != nil {
		return err
	}
	r.set("setup_s", setup, "s")
	var roundCells int
	var roundAccesses int64
	for _, a := range regenPlan {
		c, n, err := plannedAccesses(a)
		if err != nil {
			return err
		}
		roundCells += c
		roundAccesses += n
	}

	ts := beginTimed()
	var first map[string]string
	var cellSecs, reqSecs []float64
	var rounds int
	for rounds == 0 || time.Since(ts.start) < cfg.seconds || len(cellSecs) < minRegenCells {
		rd, err := regenerate(ctx, cfg.seed, regenWorkers)
		r.attempt(roundCells)
		if err != nil {
			r.fail("round %d: %v", rounds, err)
			break
		}
		rounds++
		r.check(len(rd.cellSecs) == roundCells, "round %d completed %d cells, planned %d", rounds, len(rd.cellSecs), roundCells)
		if first == nil {
			first = rd.tables
		}
		for id, tbl := range rd.tables {
			r.check(tbl == first[id], "%s: round %d rendered a different table", id, rounds)
		}
		cellSecs = append(cellSecs, rd.cellSecs...)
		for _, a := range regenPlan {
			reqSecs = append(reqSecs, rd.wall[a.id].Seconds())
		}
	}
	ts.finish(r, len(cellSecs), int64(rounds)*roundAccesses)
	setLatencies(r, "cell_ms", cellSecs)
	setLatencies(r, "req_ms", reqSecs)

	// Report invariants on fig8b's three sample cells, through the
	// experiment's own factories.
	cells, err := regenSample(cfg.seed)
	if err != nil {
		return err
	}
	for _, c := range cells[2:5] {
		r.attempt(1)
		res, err := sim.RunContext(ctx, c.mix, c.factory, c.opts)
		if err != nil {
			r.fail("%s: %v", c.label, err)
			continue
		}
		checkInvariants(r, c, res)
	}
	return nil
}

func paperRegenTraced(ctx context.Context, cfg config, r *report) error {
	tr := newTracer()
	rt0 := readRuntime()
	r.attempt(2)
	par, err := regenerate(ctx, cfg.seed, regenWorkers)
	if err != nil {
		return err
	}
	serial, err := regenerate(ctx, cfg.seed, 1)
	if err != nil {
		return err
	}
	for _, a := range regenPlan {
		r.check(serial.tables[a.id] == par.tables[a.id], "%s: serial regeneration renders a different table than %d workers", a.id, regenWorkers)
		r.setLayer("experiments."+a.id+"_s", par.wall[a.id].Seconds())
	}
	r.setLayer("engine.busy_frac", par.busy.Seconds()/(par.total.Seconds()*regenWorkers))
	fmt.Fprintf(os.Stderr, "perfbench: regeneration %.2fs with %d workers, %.2fs serial\n", par.total.Seconds(), regenWorkers, serial.total.Seconds())

	cells, err := regenSample(cfg.seed)
	if err != nil {
		return err
	}
	if err := replayLayers(ctx, cfg, r, tr, cells); err != nil {
		return err
	}
	setRuntimeLayer(r, rt0, readRuntime())
	return fillLayers(r, tr, cfg)
}
