// Command bench runs the repository's continuous benchmark suite (see
// RunBenchSuite) and writes the result as a BENCH_<pr>.json document,
// printing a comparison against every prior BENCH_*.json it can find
// next to the output file.
//
// Usage:
//
//	bench [-out BENCH_3.json] [-short] [-run matrix-subset,...]
//	      [-maxregress 25] [-profiledir prof/] [-list]
//
// With -maxregress N, bench exits non-zero when any scenario's simulated
// cycles-per-second throughput drops more than N percent against the
// newest prior artifact — the ci.sh regression gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"flexsnoop"
	"flexsnoop/internal/cli"
	"flexsnoop/internal/stats"
)

var (
	outFlag    = flag.String("out", "", "output JSON file (default: print to stdout)")
	shortFlag  = flag.Bool("short", false, "short mode: smaller scenarios (matrix-subset stays full size)")
	runFlag    = flag.String("run", "", "comma-separated scenario subset (default: all)")
	listFlag   = flag.Bool("list", false, "list scenarios, then exit")
	maxRegress = flag.Float64("maxregress", 0, "fail when sim_cycles_per_sec drops more than this percent vs the newest prior artifact (0 = off)")
	profileDir = flag.String("profiledir", "", "write per-scenario CPU and heap profiles (<dir>/<scenario>.cpu.prof, <dir>/<scenario>.mem.prof)")
)

func main() {
	flag.Parse()
	if *listFlag {
		for _, n := range flexsnoop.BenchScenarios() {
			fmt.Println(n)
		}
		return
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(cli.ExitCode(err))
	}
}

func run() error {
	cfg := flexsnoop.BenchConfig{
		Short:      *shortFlag,
		ProfileDir: *profileDir,
		GitCommit:  gitCommit(),
	}
	if *runFlag != "" {
		cfg.Scenarios = strings.Split(*runFlag, ",")
	}
	suite, err := flexsnoop.RunBenchSuite(cfg)
	if err != nil {
		return err
	}
	printSuite(suite)

	if *outFlag == "" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(suite)
	}
	priors := priorSuites(*outFlag)
	for _, p := range priors {
		printComparison(p.name, p.suite, suite)
	}
	data, err := json.MarshalIndent(suite, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*outFlag, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "wrote", *outFlag)
	if *maxRegress > 0 && len(priors) > 0 {
		newest := priors[len(priors)-1]
		if err := checkRegression(newest.name, newest.suite, suite, *maxRegress); err != nil {
			return err
		}
	}
	return nil
}

// gitCommit returns the working tree's HEAD commit, or "" when the
// repository state cannot be read (bench artifacts stay usable without
// git).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func printSuite(s *flexsnoop.BenchSuite) {
	t := stats.NewTable(
		fmt.Sprintf("Benchmark suite (%s, short=%v, gomaxprocs=%d)",
			s.GoVersion, s.Short, s.GoMaxProcs),
		"Scenario", "ns/op", "allocs/op", "B/op", "sim cycles", "Mcycles/s")
	for _, r := range s.Results {
		t.AddRowf(r.Name,
			fmt.Sprintf("%d", r.NsPerOp), fmt.Sprintf("%d", r.AllocsPerOp),
			fmt.Sprintf("%d", r.BytesPerOp), fmt.Sprintf("%d", r.SimCycles),
			r.CyclesPerSec/1e6)
	}
	fmt.Println(t)
}

// priorSuite is one readable prior BENCH_*.json artifact.
type priorSuite struct {
	name  string
	suite *flexsnoop.BenchSuite
}

// priorSuites loads every BENCH_*.json in out's directory except out
// itself, oldest first. BENCH file names embed the PR number, so the
// lexical order is the PR order for single-digit PRs and close enough
// beyond.
func priorSuites(out string) []priorSuite {
	dir := filepath.Dir(out)
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil
	}
	outAbs, _ := filepath.Abs(out)
	var names []string
	for _, m := range matches {
		if abs, _ := filepath.Abs(m); abs == outAbs {
			continue
		}
		names = append(names, m)
	}
	sort.Strings(names)
	var priors []priorSuite
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			continue
		}
		var s flexsnoop.BenchSuite
		if err := json.Unmarshal(data, &s); err != nil {
			fmt.Fprintf(os.Stderr, "bench: ignoring unreadable %s: %v\n", name, err)
			continue
		}
		priors = append(priors, priorSuite{name: name, suite: &s})
	}
	return priors
}

func printComparison(priorName string, prior, cur *flexsnoop.BenchSuite) {
	t := stats.NewTable("Comparison vs "+filepath.Base(priorName),
		"Scenario", "ns/op delta", "allocs/op delta", "B/op delta", "cycles/s delta")
	for _, r := range cur.Results {
		p, ok := prior.Result(r.Name)
		if !ok {
			t.AddRowf(r.Name, "new", "new", "new", "new")
			continue
		}
		t.AddRowf(r.Name, delta(r.NsPerOp, p.NsPerOp), delta(r.AllocsPerOp, p.AllocsPerOp),
			delta(r.BytesPerOp, p.BytesPerOp), deltaF(r.CyclesPerSec, p.CyclesPerSec))
	}
	fmt.Println(t)
}

// checkRegression fails when any scenario's throughput dropped more than
// maxPct percent against the prior suite.
func checkRegression(priorName string, prior, cur *flexsnoop.BenchSuite, maxPct float64) error {
	var bad []string
	for _, r := range cur.Results {
		p, ok := prior.Result(r.Name)
		if !ok || p.CyclesPerSec <= 0 {
			continue
		}
		drop := 100 * (p.CyclesPerSec - r.CyclesPerSec) / p.CyclesPerSec
		if drop > maxPct {
			bad = append(bad, fmt.Sprintf("%s: sim_cycles_per_sec %.0f -> %.0f (-%.1f%%)",
				r.Name, p.CyclesPerSec, r.CyclesPerSec, drop))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("regression over %.0f%% vs %s:\n  %s",
			maxPct, filepath.Base(priorName), strings.Join(bad, "\n  "))
	}
	return nil
}

// delta formats the relative change from prior to cur.
func delta(cur, prior int64) string {
	if prior == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*float64(cur-prior)/float64(prior))
}

// deltaF is delta for float metrics.
func deltaF(cur, prior float64) string {
	if prior == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(cur-prior)/prior)
}
