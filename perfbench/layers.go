package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"bimodal/internal/bench"
	"bimodal/internal/cpu"
	"bimodal/internal/dramcache"
	"bimodal/internal/energy"
	"bimodal/internal/service"
	"bimodal/internal/sim"
	"bimodal/internal/trace"
	"bimodal/internal/workloads"
)

// The traced run replays a fixed sample of each workload's cells twice
// over: once through the pooled sim.Sim path the services use (the
// reference, timed only per call) and once through an engine assembled
// from the same parts with timing wrappers around every trace draw and
// every scheme access. The wrappers change timing only, so both paths
// must produce byte-identical results.

// span is one recorded interval. Aggregate spans (Count > 0) stand for
// Count per-access calls inside their parent phase: Start is the phase
// start and End-Start the summed duration of the calls.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Cell   string `json:"cell,omitempty"`
	Count  int64  `json:"count,omitempty"`
}

// tracer keeps spans in memory until the run writes them out. Times are
// nanoseconds since the tracer was made; Parent is a span index or -1.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name, cell string, parent int) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Cell: cell})
	return len(t.spans) - 1
}

// end closes span id and returns its duration in ns.
func (t *tracer) end(id int) int64 {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return now - t.spans[id].Start
}

// record adds a finished span that started at start and lasted d.
func (t *tracer) record(name, cell string, parent int, start time.Time, d time.Duration) int {
	from := int64(start.Sub(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: from, End: from + int64(d), Parent: parent, Cell: cell})
	return len(t.spans) - 1
}

// aggregate records count calls totalling ns inside parent.
func (t *tracer) aggregate(name, cell string, parent int, count, ns int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	start := t.spans[parent].Start
	t.spans = append(t.spans, span{Name: name, Start: start, End: start + ns, Parent: parent, Cell: cell, Count: count})
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// sampleEvery is the stride of the per-access timing: the wrappers count
// every call but time only every sampleEvery-th one, which keeps the
// tracing overhead low. The odd stride does not alias with the engine's
// power-of-two dispatch batches and core counts.
const sampleEvery = 61

// sampleCap drops a sampled call that took longer than any access does:
// the thread was descheduled or interrupted inside it, and scaling that
// pause by sampleEvery would charge it to the layer many times over.
// Pauses outside a sample land in cpu self time either way.
const sampleCap = 100 * time.Microsecond

// callTotals counts one layer's calls and times a sample of them.
type callTotals struct{ calls, sampled, ns int64 }

// sample adds one timed call that started at start.
func (t *callTotals) sample(start time.Time) {
	if d := time.Since(start); d < sampleCap {
		t.ns += int64(d)
		t.sampled++
	}
}

// estNS estimates the layer's total host time: the mean sampled call,
// less the cost of reading the clock, times the number of calls.
func (t callTotals) estNS(clockNS float64) float64 {
	if t.sampled == 0 {
		return 0
	}
	return math.Max(float64(t.ns)/float64(t.sampled)-clockNS, 0) * float64(t.calls)
}

func (t callTotals) sub(o callTotals) callTotals {
	return callTotals{calls: t.calls - o.calls, sampled: t.sampled - o.sampled, ns: t.ns - o.ns}
}

func (t *callTotals) add(o callTotals) {
	t.calls += o.calls
	t.sampled += o.sampled
	t.ns += o.ns
}

// clockCost measures what one timed empty interval costs, the bias every
// sampled call carries.
func clockCost() float64 {
	var xs []float64
	for rep := 0; rep < 5; rep++ {
		const n = 100_000
		var total time.Duration
		for i := 0; i < n; i++ {
			start := time.Now()
			total += time.Since(start)
		}
		xs = append(xs, float64(total)/n)
	}
	return median(xs)
}

// timedScheme is the dramcache.Scheme decorator of the traced run: it
// counts the calls to Access and times a sample of them.
type timedScheme struct {
	dramcache.Scheme
	t callTotals
}

func (s *timedScheme) Access(req dramcache.Request, now int64) dramcache.Result {
	s.t.calls++
	if s.t.calls%sampleEvery != 0 {
		return s.Scheme.Access(req, now)
	}
	start := time.Now()
	res := s.Scheme.Access(req, now)
	s.t.sample(start)
	return res
}

// timedGen is the trace.Generator wrapper of the traced run. The wrappers
// of one engine share t; the engine runs on one goroutine.
type timedGen struct {
	trace.Generator
	t *callTotals
}

func (g timedGen) Next() trace.Access {
	g.t.calls++
	if g.t.calls%sampleEvery != 0 {
		return g.Generator.Next()
	}
	start := time.Now()
	a := g.Generator.Next()
	g.t.sample(start)
	return a
}

// Tenants forwards the tenant count the engine asks multi-tenant
// generators for; a single-tenant generator reports 1.
func (g timedGen) Tenants() int {
	if tc, ok := g.Generator.(interface{ Tenants() int }); ok {
		return tc.Tenants()
	}
	return 1
}

// replayCell is one sampled cell: the mix, factory and options the
// workload itself runs it with.
type replayCell struct {
	label   string
	scheme  string // pool key and the scheme name in the result JSON
	mix     workloads.Mix
	factory sim.Factory
	opts    sim.Options
}

// quotas returns the per-core warmup and measured quotas sim.Options
// resolve to.
func (c replayCell) quotas() (warm, measure int64) {
	measure = c.opts.AccessesPerCore
	if measure == 0 {
		measure = 200_000
	}
	warm = c.opts.WarmupPerCore
	if warm == 0 {
		warm = measure
	}
	return max(warm, 0), measure
}

// accesses is the cell's simulated access quota over all cores.
func (c replayCell) accesses() int64 {
	w, m := c.quotas()
	return int64(c.mix.Cores()) * (w + m)
}

// marshalCell encodes a run result exactly as the service does.
func marshalCell(scheme string, res sim.RunResult) ([]byte, error) {
	return json.Marshal(service.NewCellResult(scheme, res))
}

// refCell is the reference path's record of one cell.
type refCell struct {
	bytes     []byte
	res       sim.RunResult
	getNS     int64
	built     bool // Get built a simulator rather than resetting one
	warmNS    int64
	measureNS int64
	sealNS    int64
	blobBytes int
	marshalNS int64
	restoreNS int64
}

// referencePass runs cells through pool the way service cells run:
// Get, Warmup, Snapshot, Measure, marshal, Put. With restore it then
// restores the sealed warm state into another pooled simulator and
// checks the restored run's bytes. wrap, when non-nil, decorates every
// scheme built (the planted-regression self-test uses it).
func referencePass(ctx context.Context, r *report, tr *tracer, pool *sim.RunPool, cells []replayCell, restore bool, wrap func(dramcache.Scheme) dramcache.Scheme) ([]refCell, error) {
	out := make([]refCell, len(cells))
	for i, c := range cells {
		factory := c.factory
		if wrap != nil {
			factory = func(cfg dramcache.Config) dramcache.Scheme { return wrap(c.factory(cfg)) }
		}
		rc := &out[i]
		root := tr.begin("cell", c.label, -1)
		_, misses0 := pool.Stats()
		id := tr.begin("sim.get", c.label, root)
		s := pool.Get(c.scheme, c.mix, factory, c.opts)
		rc.getNS = tr.end(id)
		_, misses1 := pool.Stats()
		rc.built = misses1 > misses0
		id = tr.begin("sim.warmup", c.label, root)
		if err := s.Warmup(ctx); err != nil {
			return nil, err
		}
		rc.warmNS = tr.end(id)
		id = tr.begin("snapshot.seal", c.label, root)
		blob := s.Snapshot(c.label)
		rc.sealNS = tr.end(id)
		rc.blobBytes = len(blob)
		id = tr.begin("sim.measure", c.label, root)
		res, err := s.Measure(ctx)
		if err != nil {
			return nil, err
		}
		rc.measureNS = tr.end(id)
		id = tr.begin("service.marshal", c.label, root)
		rc.bytes, err = marshalCell(c.scheme, res)
		if err != nil {
			return nil, err
		}
		rc.marshalNS = tr.end(id)
		rc.res = res
		checkInvariants(r, c, res)
		// res.Scheme is the live scheme, which the pool will reset.
		rc.res.Scheme = nil
		id = tr.begin("sim.put", c.label, root)
		pool.Put(s)
		tr.end(id)
		if restore {
			s2 := pool.Get(c.scheme, c.mix, factory, c.opts)
			id = tr.begin("snapshot.restore", c.label, root)
			if err := s2.Restore(blob, c.label); err != nil {
				return nil, err
			}
			rc.restoreNS = tr.end(id)
			res2, err := s2.Measure(ctx)
			if err != nil {
				return nil, err
			}
			b2, err := marshalCell(c.scheme, res2)
			if err != nil {
				return nil, err
			}
			r.check(string(b2) == string(rc.bytes), "%s: restored run differs from the straight run", c.label)
			pool.Put(s2)
		}
		tr.end(root)
	}
	return out, nil
}

// tracedCell is the traced path's record of one cell.
type tracedCell struct {
	bytes    []byte
	res      sim.RunResult
	cellNS   int64 // the whole cell span
	childNS  int64 // build + phases + marshal
	phaseNS  int64 // warmup + measure
	draws    callTotals
	accesses callTotals // scheme Access calls
}

// tracedEngine is an engine of the traced path with its wrappers.
type tracedEngine struct {
	eng    *cpu.Engine
	scheme *timedScheme
	draws  *callTotals
}

// engineKey groups cells the way sim.RunPool does: the same scheme, mix
// and options up to the seed share one recycled engine.
type engineKey struct {
	scheme, mix string
	opts        sim.Options
}

// tracedEngineFor resets the engine engines holds for c's key in place,
// as sim.Sim.Reset does, or builds and keeps a new one.
func tracedEngineFor(engines map[engineKey]*tracedEngine, c replayCell, wrap func(dramcache.Scheme) dramcache.Scheme) *tracedEngine {
	o := c.opts
	o.Seed = 0
	k := engineKey{scheme: c.scheme, mix: c.mix.Name, opts: o}
	cfg := sim.ConfigFor(c.mix, c.opts)
	if te := engines[k]; te != nil {
		if rs, ok := te.scheme.Scheme.(dramcache.Resetter); ok && rs.Reset(cfg) {
			seeds := make([]uint64, c.mix.Cores())
			for i := range seeds {
				seeds[i] = workloads.CoreSeed(c.opts.Seed, i)
			}
			if te.eng.Reset(seeds) {
				*te.draws = callTotals{}
				te.scheme.t = callTotals{}
				return te
			}
		}
	}
	inner := c.factory(cfg)
	if wrap != nil {
		inner = wrap(inner)
	}
	te := &tracedEngine{scheme: &timedScheme{Scheme: inner}, draws: &callTotals{}}
	gens := c.mix.Generators(c.opts.Seed)
	for g := range gens {
		gens[g] = timedGen{Generator: gens[g], t: te.draws}
	}
	te.eng = cpu.NewEngine(te.scheme, gens, cpu.DefaultCoreConfig(), nil)
	engines[k] = te
	return te
}

// tracedPass runs cells on engines assembled from the same parts
// sim.NewSim uses, with timedGen around every generator and timedScheme
// around the scheme, recycled through engines across cells and passes
// like the reference path's pool. clockNS is clockCost's estimate.
func tracedPass(ctx context.Context, r *report, tr *tracer, engines map[engineKey]*tracedEngine, cells []replayCell, clockNS float64, wrap func(dramcache.Scheme) dramcache.Scheme) ([]tracedCell, error) {
	out := make([]tracedCell, len(cells))
	for i, c := range cells {
		tc := &out[i]
		warm, measure := c.quotas()
		root := tr.begin("cell", c.label, -1)
		id := tr.begin("engine.get", c.label, root)
		te := tracedEngineFor(engines, c, wrap)
		eng, scheme := te.eng, te.scheme
		tc.childNS += tr.end(id)

		phase := func(name string, run func() error) error {
			d0, s0 := *te.draws, scheme.t
			id := tr.begin(name, c.label, root)
			if err := run(); err != nil {
				return err
			}
			ns := tr.end(id)
			tc.phaseNS += ns
			tc.childNS += ns
			d, a := te.draws.sub(d0), scheme.t.sub(s0)
			tr.aggregate("trace.next", c.label, id, d.calls, int64(d.estNS(clockNS)))
			tr.aggregate("dramcache.access", c.label, id, a.calls, int64(a.estNS(clockNS)))
			return nil
		}
		var pre, per []cpu.CoreResult
		var preT []cpu.TenantResult
		err := phase("cpu.warmup", func() (err error) {
			if warm > 0 {
				pre, err = eng.WarmupContext(ctx, warm)
				preT = eng.TenantTotals()
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		err = phase("cpu.measure", func() (err error) {
			if warm > 0 {
				per, err = eng.MeasureAfterWarmupContext(ctx, measure, pre)
			} else {
				per, err = eng.RunContext(ctx, measure)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		id = tr.begin("service.marshal", c.label, root)
		rep := scheme.Report()
		tc.res = sim.RunResult{
			Mix:       c.mix.Name,
			PerCore:   per,
			PerTenant: cpu.DeltaTenants(eng.TenantTotals(), preT),
			Report:    rep,
			Energy:    energy.Compute(rep, energy.Default()),
		}
		tc.bytes, err = marshalCell(c.scheme, tc.res)
		if err != nil {
			return nil, err
		}
		tc.childNS += tr.end(id)
		tc.cellNS = tr.end(root)
		tc.accesses = scheme.t
		tc.draws = *te.draws
		checkInvariants(r, c, tc.res)
	}
	return out, nil
}

// checkInvariants asserts the report invariants every workload checks:
// hits <= accesses, locator hits <= lookups, row hits <= reads + writes
// and per-core measured accesses equal to the quota.
func checkInvariants(r *report, c replayCell, res sim.RunResult) {
	rep := res.Report
	r.check(rep.Hits <= rep.Accesses, "%s: %d hits > %d accesses", c.label, rep.Hits, rep.Accesses)
	r.check(rep.LocatorHits <= rep.LocatorLookups, "%s: %d locator hits > %d lookups", c.label, rep.LocatorHits, rep.LocatorLookups)
	r.check(rep.MetaRowHits <= rep.MetaReads, "%s: %d metadata row hits > %d reads", c.label, rep.MetaRowHits, rep.MetaReads)
	r.check(rep.Stacked.RowHits <= rep.Stacked.Reads+rep.Stacked.Writes, "%s: stacked row hits exceed reads + writes", c.label)
	r.check(rep.Offchip.RowHits <= rep.Offchip.Reads+rep.Offchip.Writes, "%s: off-chip row hits exceed reads + writes", c.label)
	_, quota := c.quotas()
	r.check(len(res.PerCore) == c.mix.Cores(), "%s: %d core results for %d cores", c.label, len(res.PerCore), c.mix.Cores())
	for _, pc := range res.PerCore {
		r.check(pc.Accesses == quota, "%s: core %d measured %d accesses, quota %d", c.label, pc.Core, pc.Accesses, quota)
	}
}

// counts derives the exact, simulated per-layer values of a set of
// results: the dramcache, memctrl and dram ratios and the model.* values.
// They depend only on the inputs, so they must repeat exactly.
func counts(results []sim.RunResult) map[string]float64 {
	var acc, hits, lookups, lhits, metaReads, metaHits int64
	var small float64
	var st, off struct{ ops, rowHits, acts int64 }
	var insts, cycles, latSum, latN, total int64
	for _, res := range results {
		r := res.Report
		acc += r.Accesses
		hits += r.Hits
		lookups += r.LocatorLookups
		lhits += r.LocatorHits
		metaReads += r.MetaReads
		metaHits += r.MetaRowHits
		small += r.SmallFraction * float64(r.Accesses)
		st.ops += r.Stacked.Reads + r.Stacked.Writes
		st.rowHits += r.Stacked.RowHits
		st.acts += r.Stacked.Activates
		off.ops += r.Offchip.Reads + r.Offchip.Writes
		off.rowHits += r.Offchip.RowHits
		off.acts += r.Offchip.Activates
		latSum += r.LatencySum
		latN += r.LatencyN
		total += res.TotalCycles()
		for _, pc := range res.PerCore {
			insts += pc.Insts
			cycles += pc.Cycles
		}
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	return map[string]float64{
		"dramcache.hit_rate":             ratio(hits, acc),
		"dramcache.locator_hit_rate":     ratio(lhits, lookups),
		"dramcache.meta_row_hit_rate":    ratio(metaHits, metaReads),
		"dramcache.small_fraction":       small / math.Max(float64(acc), 1),
		"memctrl.stacked_ops_per_access": ratio(st.ops, acc),
		"memctrl.offchip_ops_per_access": ratio(off.ops, acc),
		"dram.stacked_row_hit_rate":      ratio(st.rowHits, st.ops),
		"dram.offchip_row_hit_rate":      ratio(off.rowHits, off.ops),
		"dram.activates_per_access":      ratio(st.acts+off.acts, acc),
		"model.ipc":                      ratio(insts, cycles),
		"model.avg_latency_cycles":       ratio(latSum, latN),
		"model.sim_cycles_per_access":    ratio(total, acc),
	}
}

// unitCost runs one of the repository's registered microbenchmarks and
// returns its ns/op.
func unitCost(name string) (float64, error) {
	c, ok := bench.ByName(name)
	if !ok {
		return 0, fmt.Errorf("no microbenchmark %q", name)
	}
	res := testing.Benchmark(c.Run)
	if res.N == 0 {
		return 0, fmt.Errorf("microbenchmark %s did not run", name)
	}
	return float64(res.T.Nanoseconds()) / float64(res.N), nil
}

// unitCosts are the host costs the replay's estimates rest on.
type unitCosts struct {
	memctrlNS, dramNS float64 // MemctrlRead and DRAMChannelAccess ns/op
	clockNS           float64 // one timed empty interval
}

func measureUnitCosts() (unitCosts, error) {
	m, err := unitCost("MemctrlRead")
	if err != nil {
		return unitCosts{}, err
	}
	d, err := unitCost("DRAMChannelAccess")
	if err != nil {
		return unitCosts{}, err
	}
	return unitCosts{memctrlNS: m, dramNS: d, clockNS: clockCost()}, nil
}

// replayLayers is the traced run's replay: reference and traced passes
// over cells, alternating until the run's seconds are used (at least two
// of each). It checks fidelity (traced and restored bytes equal the
// reference bytes) and count stability (every count repeats exactly on
// every pass), and records every per-layer metric the replay measures.
func replayLayers(ctx context.Context, cfg config, r *report, tr *tracer, cells []replayCell) error {
	u, err := measureUnitCosts()
	if err != nil {
		return err
	}
	return replay(ctx, cfg.seconds, r, tr, cells, u, nil)
}

// replay runs the passes of replayLayers with every scheme decorated by
// wrap when it is non-nil.
func replay(ctx context.Context, seconds time.Duration, r *report, tr *tracer, cells []replayCell, u unitCosts, wrap func(dramcache.Scheme) dramcache.Scheme) error {
	pool := sim.NewRunPool(2 * len(cells))
	engines := map[engineKey]*tracedEngine{}
	start := time.Now()
	var refs [][]refCell
	var traced [][]tracedCell
	for pass := 0; pass < 2 || time.Since(start) < seconds; pass++ {
		r.attempt(2 * len(cells))
		ref, err := referencePass(ctx, r, tr, pool, cells, pass == 0, wrap)
		if err != nil {
			return err
		}
		tc, err := tracedPass(ctx, r, tr, engines, cells, u.clockNS, wrap)
		if err != nil {
			return err
		}
		refs = append(refs, ref)
		traced = append(traced, tc)
	}
	fmt.Fprintf(os.Stderr, "perfbench: traced replay of %d cells, %d passes\n", len(cells), len(refs))
	setReplayMetrics(r, cells, refs, traced, u)
	return nil
}

// setReplayMetrics checks the passes against each other and records the
// replay's per-layer metrics; timings are medians over passes.
func setReplayMetrics(r *report, cells []replayCell, refs [][]refCell, traced [][]tracedCell, u unitCosts) {
	clockNS := u.clockNS
	var want map[string]float64
	var wantCalls [2]int64
	perPass := map[string][]float64{}
	add := func(k string, v float64) { perPass[k] = append(perPass[k], v) }
	var builds, resets, seals, restores, blobs, marshals []float64
	for p := range refs {
		var refRes, trRes []sim.RunResult
		var drawNS, accessNS float64
		var draws, access callTotals
		var phaseNS, cellNS, childNS, refPhaseNS, warmNS, accessesQuota int64
		for i, c := range cells {
			rc, tc := refs[p][i], traced[p][i]
			r.check(string(tc.bytes) == string(rc.bytes), "%s: traced run differs from the untraced run", c.label)
			r.check(string(rc.bytes) == string(refs[0][i].bytes), "%s: pass %d differs from pass 0", c.label, p)
			refRes = append(refRes, rc.res)
			trRes = append(trRes, tc.res)
			draws.add(tc.draws)
			access.add(tc.accesses)
			drawNS += tc.draws.estNS(clockNS)
			accessNS += tc.accesses.estNS(clockNS)
			phaseNS += tc.phaseNS
			cellNS += tc.cellNS
			childNS += tc.childNS
			refPhaseNS += rc.warmNS + rc.measureNS
			warmNS += rc.warmNS
			accessesQuota += c.accesses()
			if rc.built {
				builds = append(builds, float64(rc.getNS)/1e6)
			} else {
				resets = append(resets, float64(rc.getNS)/1e6)
			}
			seals = append(seals, float64(rc.sealNS)/1e6)
			blobs = append(blobs, float64(rc.blobBytes)/1024)
			marshals = append(marshals, float64(rc.marshalNS)/1e3)
			if rc.restoreNS > 0 {
				restores = append(restores, float64(rc.restoreNS)/1e6)
			}
		}
		got := counts(trRes)
		ref := counts(refRes)
		for k, v := range got {
			r.check(v == ref[k], "%s: traced %v, untraced %v", k, v, ref[k])
		}
		if p == 0 {
			want = got
			wantCalls = [2]int64{draws.calls, access.calls}
			hits := 0
			for _, rc := range refs[0] {
				if !rc.built {
					hits++
				}
			}
			r.setLayer("sim.pool_hit_ratio", float64(hits)/float64(len(cells)))
		} else {
			for k, v := range got {
				r.check(v == want[k], "count %s changed between passes: %v then %v", k, want[k], v)
			}
			r.check(wantCalls == [2]int64{draws.calls, access.calls}, "trace or scheme call counts changed between passes")
		}
		selfNS := float64(phaseNS) - drawNS - accessNS
		nsPerAccess := float64(phaseNS) / float64(access.calls)
		dcShare := accessNS / float64(phaseNS)
		ops := got["memctrl.stacked_ops_per_access"] + got["memctrl.offchip_ops_per_access"]
		memShare := ops * math.Max(u.memctrlNS-u.dramNS, 0) / nsPerAccess
		dramShare := ops * u.dramNS / nsPerAccess
		add("trace.ns_per_access", drawNS/float64(draws.calls))
		add("trace.share", drawNS/float64(phaseNS))
		add("cpu.ns_per_access", selfNS/float64(access.calls))
		add("cpu.share", selfNS/float64(phaseNS))
		add("dramcache.ns_per_access", accessNS/float64(access.calls))
		add("dramcache.share", dcShare)
		add("memctrl.est_share", memShare)
		add("dram.est_share", dramShare)
		add("dramcache.residual_share", dcShare-memShare-dramShare)
		add("sim.warmup_share", float64(warmNS)/float64(refPhaseNS))
		add("tracing.accounted_frac", float64(childNS)/float64(cellNS))
		// Untraced over traced simulated accesses per host second, minus 1.
		add("tracing.overhead_frac", float64(phaseNS)/float64(refPhaseNS)-1)
		add("tracing.untraced_accesses_per_s", float64(accessesQuota)/(float64(refPhaseNS)/1e9))
	}
	for k, v := range want {
		r.setLayer(k, v)
	}
	for k, xs := range perPass {
		r.setLayer(k, median(xs))
	}
	accounted := median(perPass["tracing.accounted_frac"])
	r.check(accounted > 0.9 && accounted <= 1.0001, "layer spans account for %.3f of the traced cell time", accounted)
	r.setLayer("memctrl.unit_ns", u.memctrlNS)
	r.setLayer("dram.unit_ns", u.dramNS)
	r.setLayer("sim.build_ms", median(builds))
	r.setLayer("sim.reset_ms", median(resets))
	r.setLayer("snapshot.seal_ms", median(seals))
	r.setLayer("snapshot.restore_ms", median(restores))
	r.setLayer("snapshot.blob_kb", median(blobs))
	r.setLayer("service.marshal_us", median(marshals))
	fmt.Fprintf(os.Stderr, "perfbench: tracing overhead %.1f%% (untraced %.0f accesses/s)\n",
		100*median(perPass["tracing.overhead_frac"]), median(perPass["tracing.untraced_accesses_per_s"]))
}

// layerNames lists every per-layer metric with its unit; a traced run
// reports each of them, 0 where the workload does not reach the layer.
var layerNames = map[string]string{
	"trace.ns_per_access": "ns", "trace.share": "ratio",
	"cpu.ns_per_access": "ns", "cpu.share": "ratio",
	"dramcache.ns_per_access": "ns", "dramcache.share": "ratio", "dramcache.residual_share": "ratio",
	"dramcache.hit_rate": "ratio", "dramcache.locator_hit_rate": "ratio",
	"dramcache.meta_row_hit_rate": "ratio", "dramcache.small_fraction": "ratio",
	"memctrl.stacked_ops_per_access": "count", "memctrl.offchip_ops_per_access": "count",
	"memctrl.unit_ns": "ns", "memctrl.est_share": "ratio",
	"dram.stacked_row_hit_rate": "ratio", "dram.offchip_row_hit_rate": "ratio",
	"dram.activates_per_access": "count", "dram.unit_ns": "ns", "dram.est_share": "ratio",
	"sim.build_ms": "ms", "sim.reset_ms": "ms", "sim.pool_hit_ratio": "ratio", "sim.warmup_share": "ratio",
	"snapshot.seal_ms": "ms", "snapshot.restore_ms": "ms", "snapshot.blob_kb": "KB", "snapshot.warm_hit_ratio": "ratio",
	"spec.hash_us": "us",
	"store.get_us": "us", "store.put_us": "us", "store.hit_ratio": "ratio",
	"service.submit_ms": "ms", "service.first_event_ms": "ms", "service.marshal_us": "us", "service.rejected": "count",
	"experiments.fig1_s": "s", "experiments.fig7_s": "s", "experiments.fig8b_s": "s",
	"experiments.fig9b_s": "s", "experiments.ext-tenant_s": "s",
	"engine.busy_frac":    "ratio",
	"runtime.gc_cpu_frac": "ratio", "runtime.gc_cycles": "count",
	"model.ipc": "inst/cycle", "model.avg_latency_cycles": "cycles", "model.sim_cycles_per_access": "cycles",
	"tracing.overhead_frac": "ratio", "tracing.accounted_frac": "ratio", "tracing.untraced_accesses_per_s": "1/s",
}

// setLayer records per-layer metric name with its unit from layerNames.
func (r *report) setLayer(name string, v float64) {
	unit, ok := layerNames[name]
	if !ok {
		panic("perfbench: no per-layer metric " + name)
	}
	r.set(name, v, unit)
}

// fillLayers reports 0 for every per-layer metric the workload left
// unset, and writes the spans.
func fillLayers(r *report, tr *tracer, cfg config) error {
	for k, unit := range layerNames {
		if _, ok := r.metrics[k]; !ok {
			r.set(k, 0, unit)
		}
	}
	return tr.write(cfg.spans)
}
