package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"bimodal/internal/dramcache"
	"bimodal/internal/snapshot"
)

// burner is the planted regression: a scheme decorator that burns a fixed
// amount of CPU on every Access and forwards everything else.
type burner struct{ dramcache.Scheme }

var burnSink uint64

func (b burner) Access(req dramcache.Request, now int64) dramcache.Result {
	x := burnSink
	for i := 0; i < 2000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	burnSink = x
	return b.Scheme.Access(req, now)
}

func (b burner) SnapshotState(w *snapshot.Writer) { b.Scheme.(snapshot.Snapshotter).SnapshotState(w) }
func (b burner) RestoreState(r *snapshot.Reader)  { b.Scheme.(snapshot.Snapshotter).RestoreState(r) }

// e2eBound reads an end-to-end metric's bound and direction from the
// benchmark definition.
func e2eBound(t *testing.T, name string) (bound float64, better string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	for _, m := range def.EndToEnd {
		if m.Name == name {
			return m.Bound, m.Better
		}
	}
	t.Fatalf("BENCHMARK.json has no end-to-end metric %s", name)
	return 0, ""
}

// regressed is the gate rule: the change's value is worse than the
// parent's by more than bound, as a share of the parent's.
func regressed(parent, change, bound float64, better string) bool {
	if better == "higher" {
		return change < parent*(1-bound)
	}
	return change > parent*(1+bound)
}

// missSample returns the first n cells of miss-stream's sweep for seed.
func missSample(t *testing.T, seed uint64, n int) []replayCell {
	t.Helper()
	var cells []replayCell
	for i := 0; i < n; i++ {
		rs, err := missSpec(seed, i)
		if err != nil {
			t.Fatal(err)
		}
		c, err := specCell(rs)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, c)
	}
	return cells
}

// runReplay replays cells once per report and fails the test on any
// failed check inside.
func runReplay(t *testing.T, cells []replayCell, u unitCosts, wrap func(dramcache.Scheme) dramcache.Scheme) map[string]metric {
	t.Helper()
	r := newReport()
	if err := replay(context.Background(), 0, r, newTracer(), cells, u, wrap); err != nil {
		t.Fatal(err)
	}
	if res := r.result(); !res.Correct {
		t.Fatalf("replay checks failed: %v", r.reasons)
	}
	return r.metrics
}

// The planted regression must lower accesses_per_s by more than its
// bound, so the gate fails, and its cost must land in dramcache.share.
func TestPlantedRegressionFailsGateAndLandsInDramcache(t *testing.T) {
	bound, better := e2eBound(t, "accesses_per_s")
	cells := missSample(t, 1, 6)
	u := unitCosts{memctrlNS: 50, dramNS: 35, clockNS: clockCost()}
	base := runReplay(t, cells, u, nil)
	slow := runReplay(t, cells, u, func(s dramcache.Scheme) dramcache.Scheme { return burner{s} })

	b, s := base["tracing.untraced_accesses_per_s"].Value, slow["tracing.untraced_accesses_per_s"].Value
	t.Logf("accesses_per_s %.0f -> %.0f, dramcache.share %.3f -> %.3f", b, s, base["dramcache.share"].Value, slow["dramcache.share"].Value)
	if !regressed(b, s, bound, better) {
		t.Errorf("accesses_per_s %.0f -> %.0f is within the %.2f bound; the gate would pass a planted regression", b, s, bound)
	}
	if regressed(b, b, bound, better) {
		t.Errorf("the gate rule flags an unchanged value")
	}
	bs, ss := base["dramcache.share"].Value, slow["dramcache.share"].Value
	if ss < bs+0.1 {
		t.Errorf("dramcache.share %.3f -> %.3f: the planted cost did not land in dramcache", bs, ss)
	}
	for _, k := range []string{"trace.share", "cpu.share"} {
		if slow[k].Value >= base[k].Value {
			t.Errorf("%s rose %.3f -> %.3f although only dramcache was slowed", k, base[k].Value, slow[k].Value)
		}
	}
	// The decorator changes timing only.
	for k := range counts(nil) {
		if base[k] != slow[k] {
			t.Errorf("%s: %v without the planted cost, %v with it", k, base[k], slow[k])
		}
	}
}

// Every count-type metric repeats exactly across two separate replays of
// a seed no workload tuning used.
func TestCountsRepeatOnHeldOutSeed(t *testing.T) {
	const heldOut = 987_654_321
	cells := missSample(t, heldOut, 6)
	u := unitCosts{memctrlNS: 50, dramNS: 35, clockNS: clockCost()}
	a := runReplay(t, cells, u, nil)
	b := runReplay(t, cells, u, nil)
	keys := []string{"sim.pool_hit_ratio", "snapshot.blob_kb"}
	for k := range counts(nil) {
		keys = append(keys, k)
	}
	for _, k := range keys {
		if a[k] != b[k] {
			t.Errorf("%s: %v then %v", k, a[k], b[k])
		}
	}
}
