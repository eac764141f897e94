package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bimodal/internal/service"
	"bimodal/internal/spec"
	"bimodal/internal/store"
	"bimodal/internal/telemetry"
)

// sweep100 is the acceptance sweep: 100 explicit cells (seeds 1..100 of
// one scheme/mix), small enough to simulate in CI but wide enough to
// shard across every worker.
func sweep100() service.SweepRequest {
	req := service.SweepRequest{}
	for seed := uint64(1); seed <= 100; seed++ {
		req.Specs = append(req.Specs, spec.RunSpec{
			Scheme: "alloy", Mix: "Q1", Seed: seed,
			Options: spec.Options{AccessesPerCore: 300, CacheDivisor: 64},
		})
	}
	return req
}

// testCluster is a coordinator-backed server plus a fleet of in-process
// workers, each individually killable.
type testCluster struct {
	coord  *Coordinator
	reg    *telemetry.Registry // shared by the coordinator and every worker
	client *service.Client
	cancel []context.CancelFunc // per-worker kill switches
	wg     sync.WaitGroup
}

// kill cancels worker i's context without deregistration — the
// crash path, recovered by the liveness reaper.
func (tc *testCluster) kill(i int) { tc.cancel[i]() }

// startCluster boots a coordinator+server and n workers over real HTTP.
// st is the store every worker shares (nil: none). runFor builds worker
// i's cell runner (nil selects the production simulator path).
func startCluster(t *testing.T, n int, st store.Store, runFor func(i int) func(context.Context, spec.RunSpec) ([]byte, error)) *testCluster {
	t.Helper()
	reg := telemetry.NewRegistry()
	coord := New(Config{
		TTL:       500 * time.Millisecond,
		ReapEvery: 100 * time.Millisecond,
		PollWait:  200 * time.Millisecond,
		Metrics:   reg,
	})
	srv := service.New(service.Config{
		Workers:     1,
		SweepFanout: 16,
		Dispatcher:  coord,
	})
	mux := http.NewServeMux()
	mux.Handle("/cluster/", coord.Handler())
	mux.Handle("/", srv.Handler())
	hs := httptest.NewServer(mux)

	tc := &testCluster{coord: coord, reg: reg, client: service.NewClient(hs.URL)}
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		tc.cancel = append(tc.cancel, cancel)
		w := &Worker{
			Coordinator: hs.URL,
			Name:        fmt.Sprintf("w%d", i),
			Slots:       2,
			Store:       st,
			Metrics:     reg,
			noLeave:     true, // kills must look like crashes
		}
		if runFor != nil {
			w.Run = runFor(i)
		}
		tc.wg.Add(1)
		go func() {
			defer tc.wg.Done()
			_ = w.Serve(ctx)
		}()
	}
	t.Cleanup(func() {
		for _, cancel := range tc.cancel {
			cancel()
		}
		tc.wg.Wait()
		hs.Close()
		coord.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return tc
}

// singleNodeResult runs the sweep on a plain one-process server and
// returns the merged result bytes — the byte-identity baseline.
func singleNodeResult(t *testing.T, req service.SweepRequest) []byte {
	t.Helper()
	srv := service.New(service.Config{Workers: 1})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	c := service.NewClient(hs.URL)
	st, err := c.SubmitSweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := c.WaitSweep(context.Background(), st.ID, 20*time.Millisecond)
	if err != nil || fin.State != service.StateCompleted {
		t.Fatalf("single-node sweep: %v, state %s (%s)", err, fin.State, fin.Error)
	}
	return fin.Result
}

// TestClusterSweepWorkerDeath is the acceptance scenario: a 100-cell
// sweep shards over 3 workers, one worker is killed mid-run, and still
// (a) every cell completes exactly once, (b) the merged result is
// byte-identical to a single-node run, (c) the requeue is visible in
// telemetry, and (d) an immediate identical resweep is 100% store-served
// with zero re-simulations.
func TestClusterSweepWorkerDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cluster integration test")
	}
	req := sweep100()
	baseline := singleNodeResult(t, req)

	// Worker 0 simulates its first 5 cells normally, then wedges: it
	// holds subsequent cells forever, so killing it strands in-flight
	// work that only the reaper can recover.
	var victimCells atomic.Int32
	wedged := make(chan struct{})
	var once sync.Once
	tc := startCluster(t, 3, nil, func(i int) func(context.Context, spec.RunSpec) ([]byte, error) {
		if i != 0 {
			return nil
		}
		return func(ctx context.Context, rs spec.RunSpec) ([]byte, error) {
			if victimCells.Add(1) > 5 {
				once.Do(func() { close(wedged) })
				<-ctx.Done()
				return nil, ctx.Err()
			}
			return service.RunCellSpec(ctx, rs)
		}
	})
	ctx := context.Background()

	st, err := tc.client.SubmitSweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cells != 100 {
		t.Fatalf("sweep cells = %d, want 100", st.Cells)
	}
	select {
	case <-wedged:
	case <-time.After(30 * time.Second):
		t.Fatal("worker 0 never wedged — placement sent it no sixth cell")
	}
	tc.kill(0)

	fin, err := tc.client.WaitSweep(ctx, st.ID, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != service.StateCompleted || fin.CellsDone != 100 {
		t.Fatalf("cluster sweep: state %s (%s), %d/100 cells", fin.State, fin.Error, fin.CellsDone)
	}
	if !bytes.Equal(fin.Result, baseline) {
		t.Errorf("cluster merged result differs from single-node baseline (%d vs %d bytes)",
			len(fin.Result), len(baseline))
	}
	if got := tc.coord.mCompleted.Value(); got != 100 {
		t.Errorf("coordinator completions = %d, want exactly 100 (exactly-once)", got)
	}
	if got := tc.coord.mRequeued.Value(); got < 1 {
		t.Errorf("requeued = %d, want >= 1 (the killed worker's in-flight cells)", got)
	}
	if got := tc.coord.mDead.Value(); got != 1 {
		t.Errorf("dead workers = %d, want 1", got)
	}

	// Identical resweep: served entirely from the content-addressed
	// store — zero new dispatches reach the cluster.
	dispatchedBefore := tc.coord.mDispatched.Value()
	st2, err := tc.client.SubmitSweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	fin2, err := tc.client.WaitSweep(ctx, st2.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin2.State != service.StateCompleted || fin2.StoreHits != 100 {
		t.Fatalf("resweep: state %s, %d/100 store hits; want fully store-served",
			fin2.State, fin2.StoreHits)
	}
	if !bytes.Equal(fin2.Result, baseline) {
		t.Error("resweep result differs from baseline")
	}
	if got := tc.coord.mDispatched.Value(); got != dispatchedBefore {
		t.Errorf("resweep dispatched %d new cells, want 0", got-dispatchedBefore)
	}
}

// TestClusterStealing saturates one worker's shard and checks that idle
// peers steal rather than sit out the sweep.
func TestClusterStealing(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cluster integration test")
	}
	tc := startCluster(t, 3, nil, nil)
	ctx := context.Background()
	st, err := tc.client.SubmitSweep(ctx, sweep100())
	if err != nil {
		t.Fatal(err)
	}
	fin, err := tc.client.WaitSweep(ctx, st.ID, 50*time.Millisecond)
	if err != nil || fin.State != service.StateCompleted {
		t.Fatalf("sweep: %v, state %+v", err, fin.State)
	}
	// With 16-way fanout against 3 workers × 2 slots, queues are uneven
	// enough that at least one pull must have crossed shards.
	if got := tc.coord.mStolen.Value(); got == 0 {
		t.Error("no cells were stolen across workers")
	}
	if got := tc.coord.mCompleted.Value(); got != 100 {
		t.Errorf("completions = %d, want 100", got)
	}
}

// TestClusterWorkersShareWarmState runs the production worker setup —
// bmserved -worker always has a store — with two workers sharing one
// store on a sweep whose cells share a warmup prefix. Each worker warms
// the prefix at most once; every other cell restores the snapshot its
// own worker or its peer published, and the merged bytes still equal a
// single-node run.
func TestClusterWorkersShareWarmState(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cluster integration test")
	}
	const workers, cells = 2, 12
	req := service.SweepRequest{}
	for i := 1; i <= cells; i++ {
		req.Specs = append(req.Specs, spec.RunSpec{
			Scheme: "alloy", Mix: "Q1", Seed: 5,
			Options: spec.Options{AccessesPerCore: int64(100 * i), WarmupPerCore: 600, CacheDivisor: 64},
		})
	}
	baseline := singleNodeResult(t, req)

	tc := startCluster(t, workers, store.NewMem(), nil)
	ctx := context.Background()
	st, err := tc.client.SubmitSweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := tc.client.WaitSweep(ctx, st.ID, 20*time.Millisecond)
	if err != nil || fin.State != service.StateCompleted {
		t.Fatalf("sweep: %v, state %s (%s)", err, fin.State, fin.Error)
	}
	if !bytes.Equal(fin.Result, baseline) {
		t.Errorf("merged result differs from single-node baseline (%d vs %d bytes)",
			len(fin.Result), len(baseline))
	}
	hits := tc.reg.Counter("bimodal_snapshot_hits_total").Value()
	misses := tc.reg.Counter("bimodal_snapshot_misses_total").Value()
	if hits+misses != cells {
		t.Errorf("snapshot hits %d + misses %d = %d, want %d (one per cell)", hits, misses, hits+misses, cells)
	}
	if misses > workers {
		t.Errorf("snapshot misses = %d, want at most %d (one warmup per worker)", misses, workers)
	}
}
