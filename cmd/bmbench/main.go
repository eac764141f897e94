// Command bmbench is the benchmark-regression gate: a same-host A/B of the
// registered hot-path microbenchmarks (internal/bench) between a git ref
// and the working tree.
//
// It builds the root package's test binary twice, once from a temporary
// git worktree checked out at -base and once from the working tree, and
// runs each case's Benchmark function from both binaries in -pairs
// interleaved pairs, alternating which side runs first. Each pair gives
// one head/base ns/op ratio; drift of the host between pairs cancels out
// of the ratio, and no figure from another host is ever involved. For each
// case it prints the ratios, their median and a bootstrap interval of the
// median, and exits 1 when some case is slower beyond doubt (see
// verdict). The bootstrap seed is fixed, so a verdict can be replayed from
// the printed samples.
//
// Allocations are not compared here: the allocation pins in
// internal/bench's tests count them exactly.
//
// Examples:
//
//	bmbench                       # working tree vs HEAD, every case
//	bmbench -base origin/main     # working tree vs another ref
//	bmbench -filter BiModalAccess # a subset, quick
//	bmbench -list                 # show registered cases
//
// Exit status: 0 no regression, 1 regression, 2 the A/B could not run.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"bimodal/internal/bench"
)

func main() {
	var (
		base      = flag.String("base", "HEAD", "git ref to compare the working tree against")
		pairs     = flag.Int("pairs", 20, "interleaved base/head runs per case (at least 10)")
		benchtime = flag.String("benchtime", "0.2s", "target time per benchmark run (the test binary's -test.benchtime)")
		filter    = flag.String("filter", "", "only run cases whose name contains this substring")
		list      = flag.Bool("list", false, "list registered cases and exit")
	)
	flag.Parse()

	if *list {
		for _, c := range bench.Cases() {
			fmt.Printf("  %-24s %s\n", c.Name, c.Info)
		}
		return
	}
	if *pairs < 10 {
		fatal(fmt.Errorf("bmbench: -pairs must be at least 10, got %d", *pairs))
	}
	var names []string
	for _, c := range bench.Cases() {
		if strings.Contains(c.Name, *filter) {
			names = append(names, c.Name)
		}
	}
	if len(names) == 0 {
		fatal(fmt.Errorf("bmbench: no cases match -filter %q", *filter))
	}
	regressed, err := run(*base, names, *pairs, *benchtime)
	if err != nil {
		fatal(err)
	}
	if regressed {
		os.Exit(1)
	}
}

// side is one of the two builds under comparison.
type side struct {
	name string // "base" or "head"
	dir  string // source tree the binary was built from; runs start there
	bin  string // the root package's test binary
}

// run builds both sides, measures every case in interleaved pairs and
// prints the per-case verdicts. It reports whether any case regressed.
func run(base string, names []string, pairs int, benchtime string) (bool, error) {
	top, err := output("", "git", "rev-parse", "--show-toplevel")
	if err != nil {
		return false, err
	}
	top = strings.TrimSpace(top)
	tmp, err := os.MkdirTemp("", "bmbench-")
	if err != nil {
		return false, fmt.Errorf("bmbench: %w", err)
	}
	defer os.RemoveAll(tmp)

	tree := filepath.Join(tmp, "base")
	if _, err := output(top, "git", "worktree", "add", "--detach", tree, base); err != nil {
		return false, err
	}
	defer output(top, "git", "worktree", "remove", "--force", tree)

	sides := [2]side{
		{"base", tree, filepath.Join(tmp, "base.test")},
		{"head", top, filepath.Join(tmp, "head.test")},
	}
	for _, s := range sides {
		fmt.Fprintf(os.Stderr, "bmbench: building %s test binary\n", s.name)
		if _, err := output(s.dir, "go", "test", "-c", "-trimpath", "-o", s.bin, "."); err != nil {
			return false, err
		}
	}
	list, err := output(tree, sides[0].bin, "-test.list", "^Benchmark")
	if err != nil {
		return false, err
	}
	inBase := map[string]bool{}
	for _, f := range strings.Fields(list) {
		inBase[f] = true
	}
	var cases []string
	for _, n := range names {
		if inBase["Benchmark"+n] {
			cases = append(cases, n)
		} else {
			fmt.Printf("%-24s new case, not in %s: skipped\n", n, base)
		}
	}

	ratios := make(map[string][]float64, len(cases))
	for p := 0; p < pairs; p++ {
		fmt.Fprintf(os.Stderr, "bmbench: pair %d/%d\n", p+1, pairs)
		for i, n := range cases {
			order := [2]int{0, 1}
			if (p+i)%2 == 1 {
				order = [2]int{1, 0}
			}
			var ns [2]float64
			for _, k := range order {
				if ns[k], err = nsPerOp(sides[k], n, benchtime); err != nil {
					return false, err
				}
			}
			ratios[n] = append(ratios[n], ns[1]/ns[0])
		}
	}

	regressed := false
	fmt.Printf("head (working tree) vs base (%s): median head/base ns/op over %d pairs, %.0f%% bootstrap interval; fails when the interval lies above 1 and the median above %.2f\n",
		base, pairs, 100*confidence, 1+slowdownBound)
	for _, n := range cases {
		v := verdict(ratios[n])
		status := "ok  "
		if v.regressed {
			status = "FAIL"
			regressed = true
		}
		fmt.Printf("%-24s %s %+6.1f%% [%+6.1f%%, %+6.1f%%]  ratios %s\n", n, status,
			100*(v.median-1), 100*(v.lo-1), 100*(v.hi-1), formatRatios(ratios[n]))
	}
	if regressed {
		fmt.Println("bmbench: REGRESSION — head is slower than base beyond the bound")
	}
	return regressed, nil
}

// benchLine matches one result line of a test binary's -test.bench output,
// e.g. "BenchmarkBiModalAccess   2634782   141.2 ns/op".
var benchLine = regexp.MustCompile(`^Benchmark(\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// nsPerOp runs one case's benchmark once from s's binary. GOMAXPROCS is
// 1, so the collector's work is timed with the op rather than hidden on
// another core whose availability varies from run to run; the timeout
// turns a hung benchmark into an error.
func nsPerOp(s side, name, benchtime string) (float64, error) {
	out, err := output(s.dir, s.bin, "-test.run", "^$", "-test.bench", "^Benchmark"+name+"$",
		"-test.benchtime", benchtime, "-test.cpu", "1", "-test.timeout", "10m")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(out, "\n") {
		if m := benchLine.FindStringSubmatch(line); m != nil && m[1] == name {
			return strconv.ParseFloat(m[2], 64)
		}
	}
	return 0, fmt.Errorf("bmbench: %s: no result for Benchmark%s in:\n%s", s.name, name, out)
}

// output runs a command in dir and returns its stdout; a failure carries
// the command's stderr.
func output(dir, name string, args ...string) (string, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("bmbench: %s %s: %w\n%s%s", name, strings.Join(args, " "), err, out, stderr.Bytes())
	}
	return string(out), nil
}

func formatRatios(rs []float64) string {
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = strconv.FormatFloat(r, 'f', 4, 64)
	}
	return strings.Join(parts, " ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
