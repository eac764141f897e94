package service

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"

	"bimodal/internal/sim"
	"bimodal/internal/spec"
	"bimodal/internal/store"
	"bimodal/internal/telemetry"
)

// runPool recycles fully-constructed simulators across the cells this
// process runs: RunCellSpec, server sweep cells and cluster workers all
// draw from it through their sim.Runner. Pool reuse is bounded and keyed
// per geometry (scheme + params + mix + run shape, seed excluded), and a
// pooled run is byte-identical to a fresh one (internal/sim's golden
// tests), so the pool can never change result bytes, only construction
// cost. Every runner over it keeps cell-internal fan-out serial (Workers
// 1): the service parallelizes across cells, and the serial path keeps
// the deterministic code path shortest.
var runPool = sim.NewRunPool(0)

// cellRunner backs RunCellSpec: the process-wide pool, no warm sharing.
var cellRunner = sim.NewRunner(runPool, nil, 1, nil)

// NewCellRunner returns a cell function over the process-wide pool and
// st, for cluster workers: with a store shared across the cluster, cells
// restore warm snapshots a peer already produced instead of re-running
// warmup. A nil st only disables warm sharing; reg receives the snapshot
// counters.
func NewCellRunner(st store.Store, reg *telemetry.Registry) func(context.Context, spec.RunSpec) ([]byte, error) {
	r := sim.NewRunner(runPool, st, 1, reg)
	return func(ctx context.Context, rs spec.RunSpec) ([]byte, error) {
		raw, _, err := runCell(ctx, r, rs)
		return raw, err
	}
}

// runCell executes one canonical run spec through r and returns its
// compact CellResult JSON, marshaled before the simulator goes back to
// the pool. warm reports whether a restored snapshot replaced the
// warmup window.
func runCell(ctx context.Context, r *sim.Runner, rs spec.RunSpec) (raw []byte, warm bool, err error) {
	warm, err = r.Run(ctx, rs, func(res sim.RunResult, antt float64) error {
		c := NewCellResult(rs.Scheme, res)
		c.ANTT = antt
		var merr error
		raw, merr = marshalResultJSON(c)
		return merr
	})
	return raw, warm, err
}

// encBufs backs marshalResultJSON with reusable encoder buffers: result
// payloads are marshaled on every cell completion, and growing a fresh
// buffer through json.Marshal for each one dominated the encoding cost of
// large sweeps.
var encBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// marshalResultJSON encodes v through a pooled encoder buffer and returns
// a right-sized copy the caller owns. The bytes are identical to
// json.Marshal(v) — same escaping, no trailing newline — which the result
// determinism contract (and the committed goldens) depends on.
func marshalResultJSON(v any) ([]byte, error) {
	buf := encBufs.Get().(*bytes.Buffer)
	defer encBufs.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		return nil, err
	}
	b := buf.Bytes()
	b = b[:len(b)-1] // Encode appends '\n'; Marshal does not
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}
