package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"bimodal/internal/service"
	"bimodal/internal/sim"
	"bimodal/internal/spec"
	"bimodal/internal/store"
)

// serve-sweeps runs an in-process service.Server on loopback HTTP with
// two closed-loop clients. Each client submits small sweeps (1/256
// caches, short windows), follows each over SSE and submits the next
// when the last ended. Its requests cycle through four kinds:
//
//	run    new seeds: every cell simulates
//	warm   the run sweep's cells with a longer measured window: the same
//	       warmup prefix, so each cell restores the sealed warm state
//	warm   again, with a measured window one step longer still
//	store  an exact repeat of the run sweep: every cell is store-served
//
// The server has one worker, so the clients' sweeps run one at a time
// and a request's latency is its own time plus the wait behind the other
// client's sweep. The store keeps every result and warm snapshot; 1/256
// caches keep their snapshots small enough for the heap to hold a run's
// worth.
//
// Per-cell fixed costs dominate (HTTP, spec hashing, queueing, snapshot
// seal and restore, store get and put, JSON marshal); the access hot path
// is minor, so a hot-path change should read unchanged here.

const (
	serveClients = 2
	// serveWorkers and serveFanout run one sweep at a time, one cell at
	// a time: one busy simulator thread leaves the other CPU to the
	// clients, HTTP and the collector. Two workers on two CPUs made
	// request latency track the host's scheduling, not the server.
	serveWorkers  = 1
	serveFanout   = 1
	serveWarmup   = 3_000
	serveMeasure  = 3_000
	serveWarmLen  = 4_500 // measured window of the first warm sweep
	serveWarmStep = 100   // and how much longer the second one is
	serveDivisor  = 256
	minServeReqs  = 100
	serveRetries  = 6
	serveCycleLen = 4 // run, warm, warm, store
)

var (
	serveMixes   = []string{"Q1", "Q11"}
	serveSchemes = []string{"alloy", "lohhill"} // warmup independent of the measured window; small snapshots
)

// serveKinds names request kind j%4 of a client's cycle; it is also the
// origin every cell of that request must report.
var serveKinds = [serveCycleLen]string{"run", "warm", "warm", "store"}

// serveSweep returns the specs of request j of client c.
func serveSweep(seed uint64, c, j int) []spec.RunSpec {
	cycle := uint64(j / serveCycleLen)
	measure := int64(serveMeasure)
	if k := j % serveCycleLen; serveKinds[k] == "warm" {
		measure = serveWarmLen + int64(k-1)*serveWarmStep
	}
	var specs []spec.RunSpec
	for _, mix := range serveMixes {
		for _, scheme := range serveSchemes {
			specs = append(specs, spec.RunSpec{
				Scheme: scheme,
				Mix:    mix,
				Options: spec.Options{AccessesPerCore: measure, WarmupPerCore: serveWarmup,
					CacheDivisor: serveDivisor},
				Seed: seed*1_000_000 + uint64(c)*100_000 + cycle + 1,
			})
		}
	}
	return specs
}

// server is one running service.Server on a loopback listener.
type server struct {
	svc    *service.Server
	http   *http.Server
	url    string
	served chan error
}

// startServer starts a server over st and waits until it answers
// /healthz.
func startServer(ctx context.Context, st store.Store) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	svc := service.New(service.Config{Workers: serveWorkers, SweepFanout: serveFanout, Store: st})
	s := &server{svc: svc, http: &http.Server{Handler: svc.Handler()}, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { s.served <- s.http.Serve(ln) }()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/healthz", nil)
		if err != nil {
			return nil, errors.Join(err, s.stop())
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if ctx.Err() != nil {
			return nil, errors.Join(ctx.Err(), s.stop())
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the HTTP server and the service down and waits for both.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, s.svc.Shutdown(ctx))
}

// serveSetup is one serve-sweeps set-up: a server answering /healthz and
// the first simulator of each geometry the sweeps run.
func serveSetup(ctx context.Context, seed uint64) error {
	s, err := startServer(ctx, store.NewMem())
	if err != nil {
		return err
	}
	for _, rs := range serveSweep(seed, 0, 0) {
		c, err := specCell(rs)
		if err != nil {
			return errors.Join(err, s.stop())
		}
		sim.NewSim(c.mix, c.factory, c.opts)
	}
	return s.stop()
}

// sweepRecord is one followed request.
type sweepRecord struct {
	kind       string
	specs      []spec.RunSpec
	hashes     []string
	cells      []json.RawMessage
	origins    []string
	submit     time.Duration // submit round trip
	firstEvent time.Duration // submit to the first cell event
	total      time.Duration // submit to the terminal event
	hashAt     time.Time     // when hashing the specs began
	hash       time.Duration // hashing the specs
	start      time.Time     // when the submit began
}

// followSweep submits one sweep, follows it over SSE to its terminal
// event and fetches the merged result.
func followSweep(ctx context.Context, cl *service.Client, specs []spec.RunSpec) (sweepRecord, error) {
	rec := sweepRecord{specs: specs, hashAt: time.Now()}
	for _, rs := range specs {
		h, err := rs.Hash()
		if err != nil {
			return rec, err
		}
		rec.hashes = append(rec.hashes, h)
	}
	rec.hash = time.Since(rec.hashAt)
	start := time.Now()
	rec.start = start
	st, err := cl.SubmitSweepRetry(ctx, service.SweepRequest{Specs: specs}, service.Backoff{Attempts: serveRetries, Base: 10 * time.Millisecond})
	if err != nil {
		return rec, err
	}
	rec.submit = time.Since(start)
	var terminal service.State
	final, err := cl.FollowSweep(ctx, st.ID, func(e service.Event) {
		switch {
		case e.Type == "cell":
			if rec.origins == nil {
				rec.firstEvent = time.Since(start)
			}
			rec.origins = append(rec.origins, e.Origin)
		case e.Type == "state" && e.State.Terminal():
			rec.total = time.Since(start)
			terminal = e.State
		}
	})
	if err != nil {
		return rec, err
	}
	if terminal != service.StateCompleted || final.State != service.StateCompleted {
		return rec, fmt.Errorf("sweep %s ended %s: %s", st.ID, final.State, final.Error)
	}
	var doc struct {
		Cells []json.RawMessage `json:"cells"`
	}
	if err := json.Unmarshal(final.Result, &doc); err != nil {
		return rec, fmt.Errorf("decoding sweep result: %w", err)
	}
	rec.cells = doc.Cells
	if len(final.SpecHashes) != len(rec.hashes) {
		return rec, fmt.Errorf("sweep %s: %d spec hashes for %d cells", st.ID, len(final.SpecHashes), len(rec.hashes))
	}
	for i, h := range final.SpecHashes {
		if h != rec.hashes[i] {
			return rec, fmt.Errorf("sweep %s cell %d: server hash %s, client hash %s", st.ID, i, h, rec.hashes[i])
		}
	}
	return rec, nil
}

// serveLoop runs the clients against s. Each client stops at a cycle
// boundary once done(requests completed by all clients, requests it made)
// reports true. It returns every client's records in request order.
func serveLoop(ctx context.Context, r *report, s *server, seed uint64, done func(total, own int) bool) [][]sweepRecord {
	var reqs sync.WaitGroup
	var mu sync.Mutex
	total := 0
	out := make([][]sweepRecord, serveClients)
	for c := 0; c < serveClients; c++ {
		reqs.Add(1)
		go func() {
			defer reqs.Done()
			cl := service.NewClient(s.url)
			for j := 0; ; j++ {
				if j%serveCycleLen == 0 {
					mu.Lock()
					stop := done(total, j)
					mu.Unlock()
					if stop || ctx.Err() != nil {
						return
					}
				}
				specs := serveSweep(seed, c, j)
				r.attempt(len(specs))
				rec, err := followSweep(ctx, cl, specs)
				rec.kind = serveKinds[j%serveCycleLen]
				if err != nil {
					r.fail("client %d request %d: %v", c, j, err)
					if ctx.Err() != nil {
						return
					}
					continue
				}
				out[c] = append(out[c], rec)
				mu.Lock()
				total++
				mu.Unlock()
			}
		}()
	}
	reqs.Wait()
	return out
}

// accesses returns the accesses the request's cells simulated: warmup
// and measured windows of run cells, measured windows of warm cells.
// Every serve-sweeps mix is quad-core.
func (rec sweepRecord) accesses() int64 {
	var n int64
	for _, rs := range rec.specs {
		switch rec.kind {
		case "run":
			n += 4 * (rs.Options.WarmupPerCore + rs.Options.AccessesPerCore)
		case "warm":
			n += 4 * rs.Options.AccessesPerCore
		}
	}
	return n
}

// checkServe checks every record: each cell's origin is its request's
// kind, every store cell's bytes equal the run bytes of the same spec
// hash, and the warm cells of each client's first cycle equal a cold
// run of the same spec.
func checkServe(ctx context.Context, r *report, recs [][]sweepRecord) {
	runBytes := map[string]json.RawMessage{}
	for c, list := range recs {
		for j, rec := range list {
			r.check(len(rec.origins) == len(rec.specs) && len(rec.cells) == len(rec.specs),
				"client %d request %d: %d events and %d cells for %d specs", c, j, len(rec.origins), len(rec.cells), len(rec.specs))
			for i, origin := range rec.origins {
				r.check(origin == rec.kind, "client %d request %d cell %d: origin %s, planned %s", c, j, i, origin, rec.kind)
			}
			for i, raw := range rec.cells {
				label := fmt.Sprintf("client %d request %d cell %d", c, j, i)
				checkCellJSON(r, label, raw)
				h := rec.hashes[i]
				switch rec.kind {
				case "run":
					runBytes[h] = raw
				case "warm":
					if j < serveCycleLen {
						r.attempt(1)
						cold, err := service.RunCellSpec(ctx, mustCanonical(r, rec.specs[i]))
						r.check(err == nil && string(cold) == string(raw), "%s: warm bytes differ from a cold run", label)
					}
				case "store":
					want, ok := runBytes[h]
					r.check(ok && string(want) == string(raw), "%s: store bytes differ from the run bytes", label)
				}
			}
		}
	}
}

func mustCanonical(r *report, rs spec.RunSpec) spec.RunSpec {
	c, err := rs.Canonical()
	if err != nil {
		r.fail("canonicalizing %+v: %v", rs, err)
	}
	return c
}

func serveSweepsTimed(ctx context.Context, cfg config, r *report) error {
	setup, err := measureSetup(func() error { return serveSetup(ctx, cfg.seed) })
	if err != nil {
		return err
	}
	r.set("setup_s", setup, "s")
	s, err := startServer(ctx, store.NewMem())
	if err != nil {
		return err
	}
	ts := beginTimed()
	recs := serveLoop(ctx, r, s, cfg.seed, func(total, _ int) bool {
		return total >= minServeReqs && time.Since(ts.start) >= cfg.seconds
	})
	var all []sweepRecord
	for _, list := range recs {
		all = append(all, list...)
	}
	// Latency windows follow completion order across both clients.
	sort.Slice(all, func(i, j int) bool {
		return all[i].start.Add(all[i].total).Before(all[j].start.Add(all[j].total))
	})
	var reqSecs, cellSecs []float64
	var cells int
	var accesses int64
	for _, rec := range all {
		reqSecs = append(reqSecs, rec.total.Seconds())
		// A sweep's cells share its request time.
		cellSecs = append(cellSecs, rec.total.Seconds()/float64(len(rec.specs)))
		cells += len(rec.cells)
		accesses += rec.accesses()
	}
	ts.finish(r, cells, accesses)
	checkServe(ctx, r, recs)
	setLatencies(r, "req_ms", reqSecs)
	setLatencies(r, "cell_ms", cellSecs)
	r.check(s.svc.Registry().Counter("bimodal_jobs_rejected_total").Value() == 0, "the server rejected submissions")
	return s.stop()
}

// timedStore is the store.Store wrapper of the traced run: it times
// every Get and Put and counts Get hits.
type timedStore struct {
	store.Store
	tr *tracer
	mu sync.Mutex
	// get and put hold per-call durations in ns.
	get, put []float64
	hits     int
}

func (s *timedStore) Get(hash string) ([]byte, bool, error) {
	id := s.tr.begin("store.get", hash, -1)
	b, ok, err := s.Store.Get(hash)
	ns := s.tr.end(id)
	s.mu.Lock()
	s.get = append(s.get, float64(ns))
	if ok {
		s.hits++
	}
	s.mu.Unlock()
	return b, ok, err
}

func (s *timedStore) Put(hash string, blob []byte) error {
	id := s.tr.begin("store.put", hash, -1)
	err := s.Store.Put(hash, blob)
	ns := s.tr.end(id)
	s.mu.Lock()
	s.put = append(s.put, float64(ns))
	s.mu.Unlock()
	return err
}

// serveTracedCycles is how many request cycles each client runs in the
// traced run.
const serveTracedCycles = 10

func serveSweepsTraced(ctx context.Context, cfg config, r *report) error {
	tr := newTracer()
	rt0 := readRuntime()
	st := &timedStore{Store: store.NewMem(), tr: tr}
	s, err := startServer(ctx, st)
	if err != nil {
		return err
	}
	recs := serveLoop(ctx, r, s, cfg.seed, func(_, own int) bool { return own >= serveCycleLen*serveTracedCycles })
	checkServe(ctx, r, recs)
	r.setLayer("service.rejected", float64(s.svc.Registry().Counter("bimodal_jobs_rejected_total").Value()))
	if err := s.stop(); err != nil {
		return err
	}
	var submit, first, hashUS []float64
	var warm, run int
	for _, list := range recs {
		for _, rec := range list {
			root := tr.record("request", rec.kind, -1, rec.hashAt, rec.start.Sub(rec.hashAt)+rec.total)
			tr.record("spec.hash", rec.kind, root, rec.hashAt, rec.hash)
			tr.record("http.submit", rec.kind, root, rec.start, rec.submit)
			tr.record("http.first_cell_event", rec.kind, root, rec.start, rec.firstEvent)
			submit = append(submit, rec.submit.Seconds()*1e3)
			first = append(first, rec.firstEvent.Seconds()*1e3)
			hashUS = append(hashUS, rec.hash.Seconds()*1e6/float64(len(rec.specs)))
			for _, o := range rec.origins {
				switch o {
				case "warm":
					warm++
				case "run":
					run++
				}
			}
		}
	}
	r.setLayer("service.submit_ms", median(submit))
	r.setLayer("service.first_event_ms", median(first))
	r.setLayer("spec.hash_us", median(hashUS))
	r.setLayer("snapshot.warm_hit_ratio", float64(warm)/float64(max(warm+run, 1)))
	r.setLayer("store.get_us", median(st.get)/1e3)
	r.setLayer("store.put_us", median(st.put)/1e3)
	r.setLayer("store.hit_ratio", float64(st.hits)/float64(max(len(st.get), 1)))
	fmt.Fprintf(os.Stderr, "perfbench: %d store gets, %d puts\n", len(st.get), len(st.put))

	// The hot-path layers come from replaying client 0's first two run
	// sweeps.
	var cells []replayCell
	for _, rs := range append(serveSweep(cfg.seed, 0, 0), serveSweep(cfg.seed, 0, serveCycleLen)...) {
		c, err := specCell(mustCanonical(r, rs))
		if err != nil {
			return err
		}
		cells = append(cells, c)
	}
	if err := replayLayers(ctx, cfg, r, tr, cells); err != nil {
		return err
	}
	setRuntimeLayer(r, rt0, readRuntime())
	return fillLayers(r, tr, cfg)
}
