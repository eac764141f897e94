package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"bimodal/internal/service"
	"bimodal/internal/spec"
	"bimodal/internal/store"
	"bimodal/internal/telemetry"
)

// Worker is a thin pull loop around the simulator: it joins a
// coordinator, long-polls for cells, runs each one through
// service.NewCellRunner (marshaling the result exactly once — those
// bytes travel unmodified into the merged sweep), and reports back. A
// worker holds no sweep state; killing one loses nothing but the cells it
// was running, which the coordinator requeues after the liveness TTL.
type Worker struct {
	// Coordinator is the coordinator's base URL ("http://host:port").
	Coordinator string
	// Name labels the worker in introspection output (optional).
	Name string
	// Slots is the number of concurrent pull loops (parallel cells).
	// 0 selects GOMAXPROCS.
	Slots int
	// Store optionally short-circuits cells whose result bytes are already
	// present locally (a shared content-addressed store lets any node
	// answer any spec hash). Completed cells are written back. Nil
	// disables the local store pass.
	Store store.Store
	// Run executes one cell — a test seam. Nil selects the production
	// simulator path, service.NewCellRunner over Store: cells restore
	// warm-state snapshots produced locally or by peers sharing the store
	// instead of re-running warmup (a nil Store only disables that).
	Run func(ctx context.Context, rs spec.RunSpec) ([]byte, error)
	// Metrics receives worker instrumentation. Nil selects
	// telemetry.Default.
	Metrics *telemetry.Registry
	// Client is the HTTP client for coordinator calls. Nil selects a
	// client with no global timeout (pulls are long-polls).
	Client *http.Client

	// noLeave is a test seam: skip the clean deregistration on shutdown,
	// simulating a crash so the coordinator's liveness reaper (not the
	// leave path) must recover the worker's in-flight cells.
	noLeave bool
}

// Serve joins the coordinator and processes cells until ctx ends. If the
// coordinator declares the worker dead (HTTP 410 worker_gone — e.g. after
// a long GC pause or network partition outlived the TTL) the worker
// rejoins under a fresh ID and keeps serving; cells it reported late in
// between are dropped idempotently by the coordinator. The error is
// always non-nil: ctx.Err() on clean shutdown, or the failure that
// stopped the worker.
func (w *Worker) Serve(ctx context.Context) error {
	hc := w.Client
	if hc == nil {
		hc = &http.Client{}
	}
	slots := w.Slots
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	metrics := w.Metrics
	if metrics == nil {
		metrics = telemetry.Default
	}
	run := w.Run
	if run == nil {
		run = service.NewCellRunner(w.Store, metrics)
	}
	s := &workerSession{
		base:    w.Coordinator,
		name:    w.Name,
		hc:      hc,
		run:     run,
		store:   w.Store,
		noLeave: w.noLeave,
		mCells:  metrics.Counter("bimodal_worker_cells_total"),
		mLocal:  metrics.Counter("bimodal_worker_store_hits_total"),
		mRejoin: metrics.Counter("bimodal_worker_rejoins_total"),
	}
	for {
		if err := s.join(ctx); err != nil {
			return fmt.Errorf("cluster: joining %s: %w", w.Coordinator, err)
		}
		err := s.serveOnce(ctx, slots)
		if !errors.Is(err, ErrUnknownWorker) {
			return err
		}
		// Declared dead; rejoin under a fresh ID.
		s.mRejoin.Inc()
	}
}

// workerSession is one registration's worth of state.
type workerSession struct {
	base  string
	name  string
	hc    *http.Client
	run   func(ctx context.Context, rs spec.RunSpec) ([]byte, error)
	store store.Store

	id      string
	ttl     time.Duration
	noLeave bool

	mCells  *telemetry.Counter
	mLocal  *telemetry.Counter
	mRejoin *telemetry.Counter
}

// join registers with the coordinator.
func (s *workerSession) join(ctx context.Context) error {
	var rep joinReply
	if err := s.call(ctx, http.MethodPost, "/cluster/v1/workers",
		joinRequest{Name: s.name}, &rep); err != nil {
		return err
	}
	s.id = rep.ID
	s.ttl = time.Duration(rep.TTLMillis) * time.Millisecond
	return nil
}

// serveOnce runs the pull loops plus the heartbeat ticker until ctx ends
// or any loop sees worker_gone.
func (s *workerSession) serveOnce(ctx context.Context, slots int) error {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		every := s.ttl / 3
		if every <= 0 {
			every = time.Second
		}
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				if err := s.call(ctx, http.MethodPost,
					"/cluster/v1/workers/"+s.id+"/heartbeat", nil, nil); errors.Is(err, ErrUnknownWorker) {
					cancel(ErrUnknownWorker)
					return
				}
			}
		}
	}()

	for i := 0; i < slots; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.pullLoop(ctx); err != nil {
				cancel(err)
			}
		}()
	}
	wg.Wait()

	// A clean shutdown deregisters so the coordinator requeues immediately
	// instead of waiting out the TTL. Best-effort: the reaper covers us.
	if cause := context.Cause(ctx); !errors.Is(cause, ErrUnknownWorker) {
		if !s.noLeave {
			dctx, dcancel := context.WithTimeout(context.Background(), 2*time.Second)
			_ = s.call(dctx, http.MethodDelete, "/cluster/v1/workers/"+s.id, nil, nil)
			dcancel()
		}
		return cause
	}
	return ErrUnknownWorker
}

// pullLoop pulls, runs and reports cells until ctx ends.
func (s *workerSession) pullLoop(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return context.Cause(ctx)
		}
		var t Task
		found, err := s.pull(ctx, &t)
		if err != nil {
			if ctx.Err() != nil {
				return context.Cause(ctx)
			}
			return err
		}
		if !found {
			continue // empty long-poll window
		}
		s.mCells.Inc()
		blob, runErr := s.runCell(ctx, t)
		if ctx.Err() != nil {
			// Killed mid-cell: do not report; the coordinator requeues.
			return context.Cause(ctx)
		}
		rep := resultReport{WorkerID: s.id}
		if runErr != nil {
			rep.Error = runErr.Error()
		} else {
			rep.Blob = blob
		}
		if err := s.call(ctx, http.MethodPost,
			"/cluster/v1/tasks/"+t.ID+"/result", rep, nil); err != nil && ctx.Err() == nil {
			return fmt.Errorf("cluster: reporting %s: %w", t.ID, err)
		}
	}
}

// runCell produces the cell's result bytes: from the local
// content-addressed store when possible, else by simulating. Fresh bytes
// are written back so the next node asking for this spec hash is served
// from storage.
func (s *workerSession) runCell(ctx context.Context, t Task) ([]byte, error) {
	if s.store != nil {
		if blob, ok, err := s.store.Get(t.Hash); err == nil && ok {
			s.mLocal.Inc()
			return blob, nil
		}
	}
	blob, err := s.run(ctx, t.Spec)
	if err != nil {
		return nil, err
	}
	if s.store != nil {
		// Best-effort: a store write failure must not fail the cell.
		_ = s.store.Put(t.Hash, blob)
	}
	return blob, nil
}

// pull long-polls for one task; found is false on an empty 204 window.
func (s *workerSession) pull(ctx context.Context, t *Task) (found bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		s.base+"/cluster/v1/workers/"+s.id+"/pull", nil)
	if err != nil {
		return false, err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return true, json.NewDecoder(resp.Body).Decode(t)
	case http.StatusNoContent:
		return false, nil
	case http.StatusGone:
		return false, ErrUnknownWorker
	default:
		return false, apiError(resp)
	}
}

// call issues one JSON request/reply exchange against the coordinator.
func (s *workerSession) call(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusGone {
		return ErrUnknownWorker
	}
	if resp.StatusCode/100 != 2 {
		return apiError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// apiError decodes a non-2xx coordinator reply through the shared
// envelope decoder, so worker-side failures carry the same typed codes as
// public API failures.
func apiError(resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	return service.DecodeAPIError(resp.StatusCode, resp.Header.Get("Retry-After"),
		bytes.TrimSpace(msg))
}
