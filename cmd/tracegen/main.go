// Command tracegen generates, inspects and replays binary access traces,
// mirroring the paper's collect-once / simulate-many flow.
//
// Examples:
//
//	tracegen -bench mcf -n 1000000 -o mcf.trc        # generate
//	tracegen -bench mcf -n 1000000 -o mcf.trc.gz     # generate compressed
//	tracegen -inspect mcf.trc.gz                      # stream statistics
//	tracegen -replay mcf.trc -scheme bimodal          # drive a scheme
//
// Multi-tenant streams interleave several profiles into one tagged trace
// (profile:weight sets a tenant's relative share; -shared remaps that
// percentage of accesses onto a hot region all tenants contend for):
//
//	tracegen -tenants kvstore:2,kvstore,webserve,scan -shared 10 -n 1000000 -o dc.trc
//
// Output is gzip-compressed when -gzip is set or the output name ends in
// .gz; -inspect and -replay detect compression automatically.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"bimodal/internal/dramcache"
	"bimodal/internal/spec"
	"bimodal/internal/stats"
	"bimodal/internal/trace"
)

func main() {
	var (
		bench   = flag.String("bench", "", "benchmark profile to generate (see -benches)")
		benches = flag.Bool("benches", false, "list benchmark profiles")
		tenants = flag.String("tenants", "", "comma-separated tenant profiles to interleave (profile or profile:weight)")
		shared  = flag.Int64("shared", 0, "percent (0..90) of accesses remapped onto the shared hot region (with -tenants)")
		spages  = flag.Uint64("shared-pages", 64, "shared hot region size in 4KB pages (with -shared)")
		n       = flag.Int64("n", 1_000_000, "accesses to generate")
		out     = flag.String("o", "", "output trace file")
		seed    = flag.Uint64("seed", 1, "generator seed")
		llsc    = flag.Uint64("llsc", 0, "filter through an LLSC of this many bytes before writing")
		gz      = flag.Bool("gzip", false, "gzip-compress the output trace (implied by a .gz output name)")
		inspect = flag.String("inspect", "", "trace file to analyze")
		replay  = flag.String("replay", "", "trace file to replay")
		scheme  = flag.String("scheme", "bimodal", "registered scheme, alias or preset for -replay")
	)
	flag.Parse()

	var err error
	switch {
	case *benches:
		for _, name := range trace.ProfileNames() {
			p := trace.MustProfile(name)
			fmt.Printf("%-12s footprint %-8s intensity %s\n", name,
				stats.FmtBytes(float64(p.FootprintBytes())), p.Intensity)
		}
	case *inspect != "":
		err = inspectTrace(*inspect)
	case *replay != "":
		err = replayTrace(*replay, *scheme)
	case (*bench != "" || *tenants != "") && *out != "":
		err = generate(*bench, *tenants, *shared, *spages, *out, *n, *seed, *llsc, *gz || strings.HasSuffix(*out, ".gz"))
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

// parseTenants turns "kvstore:2,webserve,scan" into interleaver streams.
func parseTenants(arg string) ([]trace.TenantStream, error) {
	parts := strings.Split(arg, ",")
	if len(parts) > trace.MaxTenants {
		return nil, fmt.Errorf("at most %d tenants, got %d", trace.MaxTenants, len(parts))
	}
	streams := make([]trace.TenantStream, 0, len(parts))
	for _, part := range parts {
		name, weightArg, weighted := strings.Cut(strings.TrimSpace(part), ":")
		weight := 1.0
		if weighted {
			w, err := strconv.ParseUint(weightArg, 10, 16)
			if err != nil || w == 0 {
				return nil, fmt.Errorf("tenant %q: weight must be a positive integer", part)
			}
			weight = float64(w)
		}
		prof, err := trace.ProfileByName(name)
		if err != nil {
			return nil, err
		}
		streams = append(streams, trace.TenantStream{Prof: prof, Weight: weight})
	}
	return streams, nil
}

func generate(bench, tenants string, sharedPct int64, sharedPages uint64, out string, n int64, seed, llscBytes uint64, gz bool) error {
	var gen trace.Generator
	switch {
	case bench != "" && tenants != "":
		return fmt.Errorf("-bench and -tenants are mutually exclusive")
	case tenants != "":
		streams, err := parseTenants(tenants)
		if err != nil {
			return err
		}
		if sharedPct < 0 || sharedPct > 90 {
			return fmt.Errorf("-shared %d out of range 0..90", sharedPct)
		}
		if sharedPct > 0 && (sharedPages == 0 || sharedPages&(sharedPages-1) != 0) {
			return fmt.Errorf("-shared-pages %d must be a power of two", sharedPages)
		}
		gen = trace.NewInterleaver("tracegen:"+tenants, streams, 0, float64(sharedPct)/100, sharedPages, seed)
	default:
		prof, err := trace.ProfileByName(bench)
		if err != nil {
			return err
		}
		gen = trace.NewSynthetic(prof, 0, seed)
	}
	if llscBytes > 0 {
		gen = trace.NewLLSCFilter(gen, llscBytes, 8, seed)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	newWriter := trace.NewWriter
	if gz {
		newWriter = trace.NewGzipWriter
	}
	w, err := newWriter(f)
	if err != nil {
		return err
	}
	for i := int64(0); i < n; i++ {
		if err := w.Write(gen.Next()); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("wrote %d accesses to %s\n", w.Count(), out)
	return nil
}

func inspectTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewReader(f, path)
	if err != nil {
		return err
	}
	recs := r.Records()
	if len(recs) == 0 {
		fmt.Println("empty trace")
		return nil
	}
	var writes, deps int64
	var gapSum float64
	var tenantAcc [trace.MaxTenants + 1]int64
	maxTenant := 0
	lines := map[uint64]struct{}{}
	blockUtil := map[uint64]uint8{}
	for _, a := range recs {
		if a.Write {
			writes++
		}
		if a.Dep {
			deps++
		}
		if int(a.Tenant) <= trace.MaxTenants {
			tenantAcc[a.Tenant]++
			if int(a.Tenant) > maxTenant {
				maxTenant = int(a.Tenant)
			}
		}
		gapSum += float64(a.Gap)
		lines[uint64(a.Addr)>>6] = struct{}{}
		blk := uint64(a.Addr) >> 9
		blockUtil[blk] |= 1 << ((uint64(a.Addr) >> 6) & 7)
	}
	var utilBits, utilBlocks int
	for _, m := range blockUtil {
		utilBlocks += 8
		for b := 0; b < 8; b++ {
			if m&(1<<b) != 0 {
				utilBits++
			}
		}
	}
	tbl := stats.NewTable("trace "+path, "metric", "value")
	tbl.AddRow("accesses", fmt.Sprint(len(recs)))
	tbl.AddRow("write fraction", stats.FmtPct(float64(writes)/float64(len(recs))))
	tbl.AddRow("dependent fraction", stats.FmtPct(float64(deps)/float64(len(recs))))
	tbl.AddRow("mean gap (insts)", fmt.Sprintf("%.1f", gapSum/float64(len(recs))))
	tbl.AddRow("distinct 64B lines", fmt.Sprint(len(lines)))
	tbl.AddRow("footprint", stats.FmtBytes(float64(len(lines)*64)))
	tbl.AddRow("512B-block utilization", stats.FmtPct(float64(utilBits)/float64(utilBlocks)))
	if maxTenant > 0 {
		tbl.AddRow("tenants", fmt.Sprint(maxTenant+1))
		for t := 0; t <= maxTenant; t++ {
			tbl.AddRow(fmt.Sprintf("tenant %d share", t),
				stats.FmtPct(float64(tenantAcc[t])/float64(len(recs))))
		}
	}
	fmt.Print(tbl)
	return nil
}

func replayTrace(path, schemeName string) error {
	rep, err := replay(path, schemeName)
	if err != nil {
		return err
	}
	tbl := stats.NewTable(fmt.Sprintf("%s on %s (%d accesses)", rep.Scheme, path, rep.Accesses), "metric", "value")
	tbl.AddRow("hit rate", stats.FmtPct(rep.HitRate()))
	tbl.AddRow("avg read latency", fmt.Sprintf("%.1f cycles", rep.AvgLatency()))
	tbl.AddRow("off-chip traffic", stats.FmtBytes(float64(rep.OffchipBytes())))
	fmt.Print(tbl)
	return nil
}

// replay drives the trace at path through the registered scheme (or
// alias, or preset) named schemeName, built with the paper defaults on a
// quad-core configuration, and returns its report.
func replay(path, schemeName string) (dramcache.Report, error) {
	d, err := spec.Lookup(schemeName)
	if err != nil {
		return dramcache.Report{}, err
	}
	f, err := os.Open(path)
	if err != nil {
		return dramcache.Report{}, err
	}
	defer f.Close()
	r, err := trace.NewReader(f, path)
	if err != nil {
		return dramcache.Report{}, err
	}
	s := d.Factory()(dramcache.DefaultConfig(4))
	now := int64(0)
	for _, a := range r.Records() {
		now += int64(a.Gap)
		s.Access(dramcache.Request{Addr: a.Addr, Write: a.Write}, now)
	}
	return s.Report(), nil
}
