// Package service turns the simulator into a multi-tenant evaluation
// service: an HTTP JSON API over a bounded sweep queue and worker pool,
// with a content-addressed result store, per-cell SSE progress,
// Prometheus metrics (internal/telemetry) and a typed Go client. The
// request and result structs in this file are the single source of truth
// for the wire schema — the server, the client, cmd/bmsubmit and
// cmd/bmsim -json all share them.
//
// Determinism contract: a sweep's result JSON is a pure function of its
// canonical SweepRequest. Each cell's bytes are a pure function of its
// canonical run spec, marshaled exactly once wherever it ran (or read
// back from the store), and the merged document joins them in request
// order. Submitting the same request twice therefore yields
// byte-identical `result` payloads, whichever workers ran the cells and
// in whatever order they finished.
package service

import (
	"context"
	"encoding/json"
	"fmt"

	"bimodal/internal/energy"
	"bimodal/internal/sim"
	"bimodal/internal/spec"
	"bimodal/internal/stats"
	"bimodal/internal/workloads"
)

// SweepRequest describes one sweep, the service's only unit of work: an
// explicit list of run specs, one simulation cell each. Each cell is
// hashed and resolved against the content-addressed result store
// individually, cells the store cannot answer are dispatched (locally or
// across cluster workers), and the merged result is assembled from the
// per-cell bytes in request order, which keeps it byte-identical whatever
// node ran which cell. Clients expand grids (such as the paper's mixes ×
// schemes figures) into specs themselves; cmd/bmsubmit does so for its
// -mixes/-schemes flags.
type SweepRequest struct {
	// Specs lists the run specs, one cell each, in result order.
	Specs []spec.RunSpec `json:"specs,omitempty"`
	// Seed decorrelates reruns; it fills specs whose own seed is zero.
	Seed uint64 `json:"seed,omitempty"`
}

// canonicalize validates the sweep and resolves it to canonical form:
// the request seed folded into every spec, each spec canonical (aliases
// resolved, defaults explicit). The SHA-256 of the canonical request's
// JSON is the sweep's identity and ETag, sound because result bytes are a
// pure function of the canonical request.
func (r SweepRequest) canonicalize() (SweepRequest, error) {
	if len(r.Specs) == 0 {
		return r, fmt.Errorf("service: request needs at least one spec")
	}
	specs := make([]spec.RunSpec, len(r.Specs))
	for i, rs := range r.Specs {
		if rs.Seed == 0 {
			rs.Seed = r.Seed
		}
		cs, err := rs.Canonical()
		if err != nil {
			return r, err
		}
		specs[i] = cs
	}
	return SweepRequest{Specs: specs}, nil // the seed is folded into every spec
}

// cells resolves each canonical spec's mix, in request order. maxCells
// <= 0 disables the size bound.
func (r SweepRequest) cells(maxCells int) ([]cellSpec, error) {
	if maxCells > 0 && len(r.Specs) > maxCells {
		return nil, fmt.Errorf("service: %d cells exceed the per-sweep limit of %d", len(r.Specs), maxCells)
	}
	out := make([]cellSpec, 0, len(r.Specs))
	for _, rs := range r.Specs {
		mix, err := workloads.MixForSpec(rs)
		if err != nil {
			return nil, err
		}
		out = append(out, cellSpec{mix: mix, rs: rs})
	}
	return out, nil
}

// SweepStatus is the envelope returned by POST /v1/sweeps and GET
// /v1/sweeps/{id}. Result is present only once the sweep completed; only
// its bytes are covered by the determinism contract, not the envelope.
type SweepStatus struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
	// SweepHash is the SHA-256 of the canonical sweep request.
	SweepHash string `json:"sweep_hash,omitempty"`
	Cells     int    `json:"cells"`
	CellsDone int    `json:"cells_done"`
	// StoreHits counts cells answered by the content-addressed result
	// store without simulating. A resweep of an already-swept request
	// reports StoreHits == Cells: zero re-simulations.
	StoreHits int `json:"store_hits"`
	// SpecHashes lists each cell's canonical spec hash in request order
	// (detail view only; list views omit it). Any of them resolves under
	// GET /v1/specs/{hash} and /v1/specs/{hash}/result.
	SpecHashes []string        `json:"spec_hashes,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
}

// Dispatcher executes one sweep cell that the result store could not
// answer and returns the cell's compact CellResult JSON. The default
// (nil) dispatcher runs the cell in-process; cluster coordinators inject
// a dispatcher that shards cells across worker nodes. Because a cell's
// bytes are a pure function of its canonical spec, the choice of
// dispatcher can never change result bytes — only where the work runs.
type Dispatcher interface {
	RunCell(ctx context.Context, rs spec.RunSpec, hash string) ([]byte, error)
}

// RunCellSpec executes one canonical run spec in-process and returns its
// compact CellResult JSON — the unit of work a cluster worker performs.
// The spec must already be canonical (the coordinator only hands out
// canonical specs); results are marshaled exactly once so every node
// produces identical bytes for identical specs.
func RunCellSpec(ctx context.Context, rs spec.RunSpec) ([]byte, error) {
	raw, _, err := runCell(ctx, cellRunner, rs)
	return raw, err
}

// SweepList is the paginated reply of GET /v1/sweeps.
type SweepList struct {
	// Sweeps holds the page in submission order.
	Sweeps []SweepStatus `json:"sweeps,omitempty"`
	// NextCursor, when non-empty, fetches the next page via ?cursor=.
	// The cursor is the last returned ID; treat it as opaque.
	NextCursor string `json:"next_cursor,omitempty"`
}

// State is a sweep lifecycle state.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateCompleted State = "completed"
	StateFailed    State = "failed"
	StateCanceled  State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateCompleted || s == StateFailed || s == StateCanceled
}

// SweepResult is the deterministic payload of a completed sweep.
type SweepResult struct {
	// Request echoes the canonical form of the submitted request (aliases
	// resolved, defaults explicit, the seed folded into every spec) — the
	// exact value the sweep hash covers, so equal hashes guarantee equal
	// result bytes.
	Request SweepRequest `json:"request"`
	// Cells holds one result per spec, in request order.
	Cells []CellResult `json:"cells"`
}

// CellResult reports one simulation cell.
type CellResult struct {
	Mix               string  `json:"mix"`
	Scheme            string  `json:"scheme"`
	HitRate           float64 `json:"hit_rate"`
	AvgLatencyCycles  float64 `json:"avg_latency_cycles"`
	LocatorHitRate    float64 `json:"locator_hit_rate,omitempty"`
	MetaRowHitRate    float64 `json:"meta_row_hit_rate,omitempty"`
	SmallFraction     float64 `json:"small_block_fraction,omitempty"`
	StackedRowHitRate float64 `json:"stacked_row_hit_rate"`
	OffchipReadBytes  int64   `json:"offchip_read_bytes"`
	OffchipWriteBytes int64   `json:"offchip_write_bytes"`
	WastedFetchBytes  int64   `json:"wasted_fetch_bytes"`
	EnergyPerAccessNJ float64 `json:"energy_per_access_nj"`
	TotalCycles       int64   `json:"total_cycles"`
	ANTT              float64 `json:"antt,omitempty"`
	// TenantANTT and PerTenant attribute a multi-tenant cell to its tenant
	// streams (absent on single-tenant mixes). TenantANTT is the mean
	// per-tenant slowdown relative to the best-served tenant
	// (stats.TenantSlowdowns).
	TenantANTT float64        `json:"tenant_antt,omitempty"`
	PerTenant  []TenantResult `json:"per_tenant,omitempty"`
	PerCore    []CoreResult   `json:"per_core"`
}

// TenantResult is the per-tenant slice of a multi-tenant cell.
type TenantResult struct {
	Tenant           int     `json:"tenant"`
	Accesses         int64   `json:"accesses"`
	HitRate          float64 `json:"hit_rate"`
	AvgLatencyCycles float64 `json:"avg_latency_cycles"`
	// Slowdown is this tenant's average latency normalized to the
	// best-served tenant's (>= 1; exactly 1 for the best tenant).
	Slowdown float64 `json:"slowdown"`
}

// CoreResult is the per-core slice of a cell.
type CoreResult struct {
	Core         int     `json:"core"`
	Benchmark    string  `json:"benchmark"`
	Cycles       int64   `json:"cycles"`
	Instructions int64   `json:"instructions"`
	IPC          float64 `json:"ipc"`
	HitRate      float64 `json:"hit_rate"`
}

// NewCellResult flattens a sim run into the wire schema. scheme is the
// canonical CLI name ("bimodal", "alloy", ...), not the scheme's display
// name, so results join back to request fields.
func NewCellResult(scheme string, res sim.RunResult) CellResult {
	r := res.Report
	c := CellResult{
		Mix:               res.Mix,
		Scheme:            scheme,
		HitRate:           r.HitRate(),
		AvgLatencyCycles:  r.AvgLatency(),
		LocatorHitRate:    r.LocatorHitRate(),
		MetaRowHitRate:    r.MetaRowHitRate(),
		SmallFraction:     r.SmallFraction,
		StackedRowHitRate: r.Stacked.RowHitRate(),
		OffchipReadBytes:  r.OffchipReadBytes,
		OffchipWriteBytes: r.OffchipWriteBytes,
		WastedFetchBytes:  r.WastedFetchBytes,
		EnergyPerAccessNJ: energy.PerAccess(res.Energy, r.Accesses),
		TotalCycles:       res.TotalCycles(),
	}
	if len(res.PerTenant) > 0 {
		shares := make([]stats.TenantShare, len(res.PerTenant))
		for i, t := range res.PerTenant {
			shares[i] = stats.TenantShare{Accesses: t.Accesses, Reads: t.Reads, Hits: t.Hits, LatencySum: t.LatencySum}
		}
		slow, antt := stats.TenantSlowdowns(shares)
		c.TenantANTT = antt
		for i, t := range res.PerTenant {
			c.PerTenant = append(c.PerTenant, TenantResult{
				Tenant:           t.Tenant,
				Accesses:         t.Accesses,
				HitRate:          shares[i].HitRate(),
				AvgLatencyCycles: shares[i].AvgLatency(),
				Slowdown:         slow[i],
			})
		}
	}
	for _, pc := range res.PerCore {
		hr := 0.0
		if pc.Accesses > 0 {
			hr = float64(pc.Hits) / float64(pc.Accesses)
		}
		c.PerCore = append(c.PerCore, CoreResult{
			Core:         pc.Core,
			Benchmark:    pc.Benchmark,
			Cycles:       pc.Cycles,
			Instructions: pc.Insts,
			IPC:          pc.IPC(),
			HitRate:      hr,
		})
	}
	return c
}

// Event is one SSE payload on GET /v1/sweeps/{id}/events: a state
// transition or a completed cell.
type Event struct {
	// Type is "state" or "cell".
	Type string `json:"type"`
	// State is set on state events.
	State State `json:"state,omitempty"`
	// Cell is the completed cell's label on cell events ("Q7 bimodal").
	Cell string `json:"cell,omitempty"`
	// Done/Total track cell progress.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Origin says what answered a cell event: "run" (simulated), "store"
	// (served from the content-addressed result store) or "warm"
	// (simulated from a restored warm-state snapshot — byte-identical to
	// "run", but the warmup phase was reused).
	Origin string `json:"origin,omitempty"`
	// Error carries the failure reason on terminal failed states.
	Error string `json:"error,omitempty"`
}

// cellSpec is one validated run spec with its resolved mix, ready to run.
type cellSpec struct {
	mix workloads.Mix
	rs  spec.RunSpec // canonical
}

// label identifies the cell in progress events.
func (c cellSpec) label() string { return c.mix.Name + " " + c.rs.Scheme }
