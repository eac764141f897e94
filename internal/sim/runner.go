package sim

import (
	"context"
	"sort"
	"strconv"
	"sync"

	"bimodal/internal/spec"
	"bimodal/internal/store"
	"bimodal/internal/telemetry"
	"bimodal/internal/workloads"
)

// Runner executes canonical run specs: the one run path shared by the
// experiments, bmsim, the sweep service and cluster workers. Neither its
// pool nor its store can change result bytes: a pooled simulator behaves
// exactly like a fresh one (TestPooledRunMatchesFresh) and
// restore-then-measure exactly like a straight run
// (TestRestoreThenRunGolden). They only change how often constructors and
// warmup windows execute. A Runner is safe for concurrent use.
type Runner struct {
	pool    *RunPool
	store   store.Store
	workers int

	// Warm-sharing state, set only when store is non-nil.
	hits, misses, bytes *telemetry.Counter
	mu                  sync.Mutex
	calls               map[string]*warmCall // in-flight warmups by prefix hash
}

// warmCall is one in-flight warmup: concurrent cells with the same prefix
// wait on done and restore from blob, which stays nil if warmup failed.
type warmCall struct {
	done chan struct{}
	blob []byte
}

// NewRunner builds a runner. pool, when non-nil, recycles simulators
// across runs. st, when non-nil, shares warm state: cells with equal
// prefix hashes (spec.PrefixHash) run the warmup window once, seal it into
// a snapshot stored under the prefix hash, and restore the others from
// it; reg receives the runner's bimodal_snapshot_{hits,misses,bytes}_total
// counters (nil selects telemetry.Default). workers is the fan-out of an
// ANTT spec's independent runs (Options.Workers).
func NewRunner(pool *RunPool, st store.Store, workers int, reg *telemetry.Registry) *Runner {
	r := &Runner{pool: pool, store: st, workers: workers}
	if st != nil {
		if reg == nil {
			reg = telemetry.Default
		}
		r.hits = reg.Counter("bimodal_snapshot_hits_total")
		r.misses = reg.Counter("bimodal_snapshot_misses_total")
		r.bytes = reg.Counter("bimodal_snapshot_bytes_total")
		r.calls = map[string]*warmCall{}
	}
	return r
}

// Run resolves the canonical spec rs (mix, factory, options), runs it and
// hands the result to use — with the ANTT value, 0 unless the spec asks
// for ANTT — before the simulator goes back to the pool. The RunResult
// aliases the live scheme, so use must copy whatever it keeps. warm
// reports whether a restored snapshot replaced the warmup window. A
// failed run's simulator is discarded, never pooled.
func (r *Runner) Run(ctx context.Context, rs spec.RunSpec, use func(res RunResult, antt float64) error) (warm bool, err error) {
	mix, err := workloads.MixForSpec(rs)
	if err != nil {
		return false, err
	}
	factory, err := FactoryForSpec(rs, mix.Cores())
	if err != nil {
		return false, err
	}
	o := OptionsForSpec(rs)
	o.Workers = r.workers
	if rs.Options.ANTT {
		antt, res, err := ANTTContext(ctx, mix, factory, o)
		if err != nil {
			return false, err
		}
		return false, use(res, antt)
	}
	if r.store != nil {
		prefix, ok, err := rs.PrefixHash()
		if err != nil {
			return false, err
		}
		if ok {
			return r.warmRun(ctx, rs, mix, factory, o, prefix, use)
		}
	}
	return false, r.coldRun(ctx, r.get(rs, mix, factory, o), use)
}

// warmRun replaces the warmup window with the prefix's snapshot: from the
// store, or from a same-prefix warmup in flight. Otherwise this cell is
// the prefix's producer: it warms, seals the snapshot for the others,
// publishes it best-effort and measures on its own warm state. A blob
// that fails to restore falls back to a cold run, because a cache of warm
// state must degrade to slower, never to wrong. Hits count restores that
// replaced a warmup; misses count the warmups that ran.
func (r *Runner) warmRun(ctx context.Context, rs spec.RunSpec, mix workloads.Mix, factory Factory, o Options, prefix string, use func(RunResult, float64) error) (bool, error) {
	blob, found, gerr := r.store.Get(prefix)
	if gerr != nil || !found {
		r.mu.Lock()
		c, inflight := r.calls[prefix]
		if !inflight {
			c = &warmCall{done: make(chan struct{})}
			r.calls[prefix] = c
		}
		r.mu.Unlock()
		if !inflight {
			return false, r.produce(ctx, r.get(rs, mix, factory, o), prefix, c, use)
		}
		select {
		case <-c.done:
		case <-ctx.Done():
			return false, ctx.Err()
		}
		blob = c.blob
	}
	if blob != nil {
		// A simulator from get is fully reset or fresh, so restoring over
		// it is exactly NewSim+Restore. One that fails to restore may hold
		// partial state and is dropped.
		if s := r.get(rs, mix, factory, o); s.Restore(blob, prefix) == nil {
			if err := r.finish(ctx, s, use); err != nil {
				return false, err
			}
			r.hits.Inc()
			return true, nil
		}
	}
	r.misses.Inc()
	return false, r.coldRun(ctx, r.get(rs, mix, factory, o), use)
}

// produce warms s for the prefix's waiters and the store, then measures.
func (r *Runner) produce(ctx context.Context, s *Sim, prefix string, c *warmCall, use func(RunResult, float64) error) error {
	r.misses.Inc()
	werr := s.Warmup(ctx)
	if werr == nil {
		c.blob = s.Snapshot(prefix)
		r.bytes.Add(int64(len(c.blob)))
		_ = r.store.Put(prefix, c.blob) // waiters read c.blob directly
	}
	r.mu.Lock()
	delete(r.calls, prefix)
	r.mu.Unlock()
	close(c.done)
	if werr != nil {
		return werr
	}
	return r.finish(ctx, s, use)
}

// coldRun runs the warmup window, then finishes the run.
func (r *Runner) coldRun(ctx context.Context, s *Sim, use func(RunResult, float64) error) error {
	if err := s.Warmup(ctx); err != nil {
		return err
	}
	return r.finish(ctx, s, use)
}

// get returns a simulator for the spec, pooled when the runner has a pool.
func (r *Runner) get(rs spec.RunSpec, mix workloads.Mix, factory Factory, o Options) *Sim {
	if r.pool == nil {
		return NewSim(mix, factory, o)
	}
	return r.pool.Get(poolScheme(rs), mix, factory, o)
}

// finish measures s and hands the result to use; only then does s go back
// to the pool, where a concurrent Reset may overwrite the scheme the
// result aliased.
func (r *Runner) finish(ctx context.Context, s *Sim, use func(RunResult, float64) error) error {
	res, err := s.Measure(ctx)
	if err != nil {
		return err
	}
	if err := use(res, 0); err != nil {
		return err
	}
	if r.pool != nil {
		r.pool.Put(s)
	}
	return nil
}

// poolScheme is the runner's RunPool key rule: the scheme name plus its
// params, because params shape the built scheme beyond what Options
// capture and two factories may share a key only if they build
// identically. Canonical params make the key deterministic.
func poolScheme(rs spec.RunSpec) string {
	if len(rs.Params) == 0 {
		return rs.Scheme
	}
	keys := make([]string, 0, len(rs.Params))
	for k := range rs.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b := []byte(rs.Scheme)
	for _, k := range keys {
		b = append(append(append(b, '?'), k...), '=')
		b = strconv.AppendInt(b, rs.Params[k], 10)
	}
	return string(b)
}
