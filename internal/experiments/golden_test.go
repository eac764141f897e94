package experiments

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*.txt experiment tables")

// goldenOptions is the scale the committed tables were rendered at. It is
// deliberately above QuickOptions: at 8k accesses per core the run-length
// scaling of the BiModal ablation columns leaves some tables unchanged, at
// 40k every figure that depends on it moves.
func goldenOptions() Options {
	return Options{AccessesPerCore: 40_000, StreamAccesses: 120_000, MaxMixes: 1, Seed: 1}
}

// TestGoldenTables re-renders every registered experiment and compares
// the table bytes with testdata/<id>.txt. Any change to how a cell's
// scheme is built, scaled or run shows up here. Regenerate with
// `go test ./internal/experiments -run TestGoldenTables -update` only
// after a deliberate change to the simulated results.
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every experiment at 40k accesses per core")
	}
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			tbl, err := e.Run(context.Background(), goldenOptions())
			if err != nil {
				t.Fatal(err)
			}
			got := []byte(tbl.String())
			path := filepath.Join("testdata", e.ID+".txt")
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to record)", err)
			}
			if string(got) != string(want) {
				t.Errorf("%s table differs from %s\ngot:\n%s\nwant:\n%s", e.ID, path, got, want)
			}
		})
	}
}
