// Quickstart: build a Bi-Modal DRAM cache system, run a quad-core
// multiprogrammed workload through it, and print the headline metrics.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"bimodal"
	"bimodal/internal/dramcache"
	"bimodal/internal/stats"
)

func main() {
	// Q7 is one of the paper's irregular mixes: mcf, art, twolf, omnetpp.
	mix := bimodal.Workload("Q7")

	opts := bimodal.Options{
		AccessesPerCore: 100_000,
		CacheDivisor:    4, // scale capacity to the replay length
		Seed:            1,
	}

	// Run the paper's proposal and its baseline side by side.
	bm := bimodal.RunBiModal(mix, opts)
	alloy, err := bimodal.RunScheme("alloy", mix, opts)
	if err != nil {
		panic(err)
	}

	fmt.Printf("workload %s (%d cores)\n\n", mix.Name, mix.Cores())
	for _, res := range []bimodal.RunResult{bm, alloy} {
		r := res.Report
		fmt.Printf("%-12s hit rate %-6s  avg latency %6.1f cycles  off-chip %-9s  wasted %s\n",
			r.Scheme,
			stats.FmtPct(r.HitRate()),
			r.AvgLatency(),
			stats.FmtBytes(float64(r.OffchipBytes())),
			stats.FmtBytes(float64(r.WastedFetchBytes)))
	}

	// The Bi-Modal specifics: way locator and adaptive block sizing.
	r := bm.Report
	fmt.Printf("\nway locator hit rate: %s\n", stats.FmtPct(r.LocatorHitRate()))
	fmt.Printf("small-block access fraction: %s\n", stats.FmtPct(r.SmallFraction))
	fmt.Printf("cache-wide state (X_glob, Y_glob): %v\n", bm.Scheme.(*dramcache.BiModal).Core().GlobalState())
}
