// Package cluster distributes sweep cells across worker processes.
//
// A Coordinator embeds in the job server (it implements
// service.Dispatcher, so the sweep executor hands it every cell the
// content-addressed store cannot answer) and keeps those cells on one
// FIFO queue that every live worker pulls from. Workers are thin pull
// loops around service.NewCellRunner: join, long-poll for tasks, run,
// report bytes. Because result bytes are a pure function of the
// canonical RunSpec (the determinism contract the simulator packages
// enforce), where a cell runs only changes speed — a sweep merged from
// three workers is byte-identical to the same sweep run on one node, and
// the goldens prove it. The sweep server's store is the cluster's one
// result cache: it answers repeated spec hashes before anything is
// dispatched, so a worker never sees a cell whose bytes already exist.
package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"bimodal/internal/spec"
	"bimodal/internal/telemetry"
)

// Config tunes a Coordinator. The zero value is usable; every field has a
// production default.
type Config struct {
	// TTL is the worker liveness window: a worker that neither heartbeats
	// nor pulls for this long is declared dead and its cells are requeued.
	// Default 15s.
	TTL time.Duration
	// ReapEvery is the liveness sweep interval. Default TTL/3.
	ReapEvery time.Duration
	// PollWait bounds how long an idle pull request is held open before
	// the coordinator answers 204 (long-poll). Default 10s.
	PollWait time.Duration
	// MaxAttempts caps how many workers may die running a cell before the
	// coordinator gives up and fails it, so a cell that kills its workers
	// cannot bounce between them forever. A clean leave is not a death.
	// Default 3.
	MaxAttempts int
	// Metrics receives the coordinator's instrumentation.
	// Default telemetry.Default.
	Metrics *telemetry.Registry
	// Now is the clock (a test seam for deterministic reaper tests).
	// Default time.Now. The cluster layer is outside the simulator's
	// determinism boundary — placement never affects result bytes.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.TTL <= 0 {
		c.TTL = 15 * time.Second
	}
	if c.ReapEvery <= 0 {
		c.ReapEvery = c.TTL / 3
	}
	if c.PollWait <= 0 {
		c.PollWait = 10 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.Metrics == nil {
		c.Metrics = telemetry.Default
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// taskResult is what a worker reported back for one cell.
type taskResult struct {
	blob []byte
	err  error
}

// task is one cell in flight through the cluster.
type task struct {
	id   string
	rs   spec.RunSpec
	hash string
	// worker is the worker running the task; empty while it is pending.
	worker string
	// deaths counts workers that died while running the task.
	deaths int
	// result receives exactly one send (buffered so a report never blocks
	// on a caller that already gave up).
	result chan taskResult
}

// workerState is the coordinator's view of one registered worker.
type workerState struct {
	id       string
	name     string
	running  map[string]*task // pulled, awaiting report
	lastSeen time.Time
}

// waiter is one parked pull request.
type waiter struct {
	w  *workerState
	ch chan *task
}

// Coordinator hands sweep cells to registered workers from one FIFO
// queue. It implements service.Dispatcher, so a service.Server configured
// with one transparently fans cells out to the fleet; with no workers
// joined, cells wait on the queue until one arrives. Create with New,
// release with Close.
type Coordinator struct {
	cfg Config

	mu      sync.Mutex
	workers map[string]*workerState
	tasks   map[string]*task // pending + running, by task ID
	queue   []*task          // pending cells, oldest first
	// waiters are parked pulls, served oldest first. Work only parks a
	// pull when the queue is empty, and new work goes to a waiter before
	// the queue, so at most one of queue and waiters is non-empty.
	waiters []waiter
	seq     int // task ID source
	wseq    int // worker ID source
	closed  bool

	stop chan struct{}
	wg   sync.WaitGroup

	mWorkers     *telemetry.Gauge
	mQueue       *telemetry.Gauge
	mJoined      *telemetry.Counter
	mDead        *telemetry.Counter
	mDispatched  *telemetry.Counter
	mCompleted   *telemetry.Counter
	mRequeued    *telemetry.Counter
	mFailed      *telemetry.Counter
	mLateReports *telemetry.Counter
}

// New builds a Coordinator and starts its liveness reaper.
func New(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:     cfg,
		workers: map[string]*workerState{},
		tasks:   map[string]*task{},
		stop:    make(chan struct{}),

		mWorkers:     cfg.Metrics.Gauge("bimodal_cluster_workers"),
		mQueue:       cfg.Metrics.Gauge("bimodal_cluster_queue_depth"),
		mJoined:      cfg.Metrics.Counter("bimodal_cluster_workers_joined_total"),
		mDead:        cfg.Metrics.Counter("bimodal_cluster_workers_dead_total"),
		mDispatched:  cfg.Metrics.Counter("bimodal_cluster_cells_dispatched_total"),
		mCompleted:   cfg.Metrics.Counter("bimodal_cluster_cells_completed_total"),
		mRequeued:    cfg.Metrics.Counter("bimodal_cluster_cells_requeued_total"),
		mFailed:      cfg.Metrics.Counter("bimodal_cluster_cells_failed_total"),
		mLateReports: cfg.Metrics.Counter("bimodal_cluster_late_reports_total"),
	}
	c.wg.Add(1)
	go c.reapLoop()
	return c
}

// Close stops the reaper and fails every outstanding cell. Parked pull
// requests are released empty-handed.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.stop)
	for _, t := range c.tasks {
		t.result <- taskResult{err: fmt.Errorf("cluster: coordinator closed")}
	}
	c.tasks = map[string]*task{}
	c.setQueueLocked(nil)
	for _, w := range c.workers {
		w.running = map[string]*task{}
	}
	for _, wt := range c.waiters {
		close(wt.ch)
	}
	c.waiters = nil
	c.mu.Unlock()
	c.wg.Wait()
}

// RunCell implements service.Dispatcher: it queues the cell and blocks
// until a worker reports the result bytes, the cell exhausts its
// attempts, or ctx ends. The returned bytes are exactly what the
// executing worker marshaled — the coordinator never re-encodes them,
// which is what keeps merged sweeps byte-identical whichever worker ran
// each cell.
func (c *Coordinator) RunCell(ctx context.Context, rs spec.RunSpec, hash string) ([]byte, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: coordinator closed")
	}
	c.seq++
	t := &task{
		id:     fmt.Sprintf("task-%06d", c.seq),
		rs:     rs,
		hash:   hash,
		result: make(chan taskResult, 1),
	}
	c.tasks[t.id] = t
	c.pendLocked(t)
	c.mu.Unlock()

	select {
	case r := <-t.result:
		return r.blob, r.err
	case <-ctx.Done():
		c.abandon(t)
		return nil, ctx.Err()
	}
}

// abandon withdraws a task whose caller gave up. A pending task leaves
// the queue; a running task stays with its worker, whose eventual report
// is dropped as late.
func (c *Coordinator) abandon(t *task) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, live := c.tasks[t.id]; !live {
		return
	}
	delete(c.tasks, t.id)
	if t.worker == "" {
		c.setQueueLocked(removeTask(c.queue, t))
		return
	}
	if w := c.workers[t.worker]; w != nil {
		delete(w.running, t.id)
	}
}

// pendLocked makes t pending: it goes straight to the oldest parked pull
// if there is one, else to the back of the queue.
func (c *Coordinator) pendLocked(t *task) {
	t.worker = ""
	if len(c.waiters) > 0 {
		wt := c.waiters[0]
		c.waiters = c.waiters[1:]
		c.startLocked(wt.w, t)
		wt.ch <- t
		return
	}
	c.setQueueLocked(append(c.queue, t))
}

// startLocked records that w now runs t.
func (c *Coordinator) startLocked(w *workerState, t *task) {
	t.worker = w.id
	w.running[t.id] = t
	w.lastSeen = c.cfg.Now()
	c.mDispatched.Inc()
}

// setQueueLocked replaces the pending queue and publishes its depth.
func (c *Coordinator) setQueueLocked(q []*task) {
	c.queue = q
	c.mQueue.Set(int64(len(q)))
}

// Join registers a worker and returns its ID plus the liveness window it
// must heartbeat within. The worker's first pull takes the oldest
// pending cell, so cells queued before any worker existed start now.
func (c *Coordinator) Join(name string) (id string, ttl time.Duration, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return "", 0, fmt.Errorf("cluster: coordinator closed")
	}
	c.wseq++
	id = fmt.Sprintf("worker-%04d", c.wseq)
	c.workers[id] = &workerState{
		id:       id,
		name:     name,
		running:  map[string]*task{},
		lastSeen: c.cfg.Now(),
	}
	c.mJoined.Inc()
	c.mWorkers.Set(int64(len(c.workers)))
	return id, c.cfg.TTL, nil
}

// Heartbeat refreshes a worker's liveness. ErrUnknownWorker tells a
// reaped worker to rejoin under a fresh ID.
func (c *Coordinator) Heartbeat(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[id]
	if w == nil {
		return ErrUnknownWorker
	}
	w.lastSeen = c.cfg.Now()
	return nil
}

// ErrUnknownWorker marks calls naming a worker the coordinator does not
// know — never joined, left, or declared dead. The HTTP layer maps it to
// 410 worker_gone.
var ErrUnknownWorker = fmt.Errorf("cluster: unknown worker")

// Pull hands the worker the oldest pending cell, or parks for up to the
// coordinator's PollWait (or until ctx ends) in case work arrives. A nil
// task with nil error means "nothing available, poll again".
func (c *Coordinator) Pull(ctx context.Context, id string) (*Task, error) {
	c.mu.Lock()
	w := c.workers[id]
	if w == nil || c.closed {
		c.mu.Unlock()
		return nil, ErrUnknownWorker
	}
	w.lastSeen = c.cfg.Now()
	if len(c.queue) > 0 {
		t := c.queue[0]
		c.queue[0] = nil // let the backing array forget the task
		c.setQueueLocked(c.queue[1:])
		c.startLocked(w, t)
		c.mu.Unlock()
		return exportTask(t), nil
	}
	ch := make(chan *task, 1)
	c.waiters = append(c.waiters, waiter{w: w, ch: ch})
	c.mu.Unlock()

	wait := time.NewTimer(c.cfg.PollWait)
	defer wait.Stop()
	select {
	case t, ok := <-ch:
		if !ok {
			return nil, ErrUnknownWorker // reaped or closed while parked
		}
		return exportTask(t), nil
	case <-wait.C:
	case <-ctx.Done():
	case <-c.stop:
	}
	// Timed out or canceled: withdraw the waiter; lose the race gracefully
	// if a task was handed over at the same moment.
	c.mu.Lock()
	defer c.mu.Unlock()
	c.waiters = removeWaiter(c.waiters, ch)
	select {
	case t, ok := <-ch:
		if ok {
			return exportTask(t), nil
		}
	default:
	}
	return nil, ctx.Err()
}

// Report delivers a worker's result for a task. Late or duplicate reports
// — the task was requeued and now waits or runs elsewhere, or the caller
// abandoned it — are dropped idempotently: reporting is always safe.
func (c *Coordinator) Report(workerID, taskID string, blob []byte, workErr error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[workerID]
	if w != nil {
		w.lastSeen = c.cfg.Now()
	}
	t := c.tasks[taskID]
	if t == nil || t.worker == "" || t.worker != workerID {
		c.mLateReports.Inc()
		return
	}
	delete(c.tasks, taskID)
	if w != nil {
		delete(w.running, taskID)
	}
	c.mCompleted.Inc()
	t.result <- taskResult{blob: blob, err: workErr}
}

// Leave deregisters a worker cleanly, requeueing anything it still holds
// (without burning an attempt — a clean leave is not a failure).
func (c *Coordinator) Leave(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[id]
	if w == nil {
		return ErrUnknownWorker
	}
	c.dropWorkerLocked(w, false)
	return nil
}

// reapLoop periodically declares workers dead after TTL of silence.
func (c *Coordinator) reapLoop() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.ReapEvery)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
			c.reapOnce()
		}
	}
}

// reapOnce declares dead every worker whose liveness window has lapsed
// and requeues its cells.
func (c *Coordinator) reapOnce() {
	c.mu.Lock()
	defer c.mu.Unlock()
	deadline := c.cfg.Now().Add(-c.cfg.TTL)
	for _, w := range c.workers {
		if w.lastSeen.After(deadline) {
			continue
		}
		c.mDead.Inc()
		c.dropWorkerLocked(w, true)
	}
}

// dropWorkerLocked removes a worker, releases its parked pulls and puts
// its in-flight cells back on the queue, each counted as a requeue. When
// the worker died, each of those cells records a death, and a cell that
// reaches MaxAttempts deaths fails instead of being requeued.
func (c *Coordinator) dropWorkerLocked(w *workerState, died bool) {
	delete(c.workers, w.id)
	c.mWorkers.Set(int64(len(c.workers)))
	kept := c.waiters[:0]
	for _, wt := range c.waiters {
		if wt.w == w {
			close(wt.ch)
		} else {
			kept = append(kept, wt)
		}
	}
	c.waiters = kept

	for id, t := range w.running {
		delete(w.running, id)
		c.mRequeued.Inc()
		if died {
			t.deaths++
			if t.deaths >= c.cfg.MaxAttempts {
				delete(c.tasks, t.id)
				c.mFailed.Inc()
				t.result <- taskResult{err: fmt.Errorf(
					"cluster: cell %s failed on %d workers (last: %s died)",
					t.hash, t.deaths, w.id)}
				continue
			}
		}
		c.pendLocked(t)
	}
}

// Task is the wire view of one dispatched cell.
type Task struct {
	ID   string       `json:"task_id"`
	Spec spec.RunSpec `json:"spec"`
	Hash string       `json:"hash"`
}

func exportTask(t *task) *Task {
	return &Task{ID: t.id, Spec: t.rs, Hash: t.hash}
}

// WorkerInfo is the introspection view of one registered worker.
type WorkerInfo struct {
	ID      string `json:"id"`
	Name    string `json:"name,omitempty"`
	Running int    `json:"running"`
}

// Workers lists the registered workers sorted by ID, plus the number of
// pending cells waiting for any worker to pull them.
func (c *Coordinator) Workers() (workers []WorkerInfo, pending int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.workers {
		workers = append(workers, WorkerInfo{ID: w.id, Name: w.name, Running: len(w.running)})
	}
	sort.Slice(workers, func(i, j int) bool { return workers[i].ID < workers[j].ID })
	return workers, len(c.queue)
}

// removeTask filters t out of a queue, preserving order.
func removeTask(q []*task, t *task) []*task {
	for i, cur := range q {
		if cur == t {
			return append(q[:i], q[i+1:]...)
		}
	}
	return q
}

// removeWaiter filters ch out of a waiter list, preserving order.
func removeWaiter(ws []waiter, ch chan *task) []waiter {
	for i, cur := range ws {
		if cur.ch == ch {
			return append(ws[:i], ws[i+1:]...)
		}
	}
	return ws
}
