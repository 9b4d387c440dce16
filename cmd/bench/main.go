// Command bench is the benchmark gate of ci.sh: go run ./cmd/bench. It
// builds the parent commit and the working tree as two test binaries
// running the same BenchmarkGate code (benchgate_test.go), runs them in
// ABBA order for a fixed number of pairs, and fails a sub-benchmark when
// head is slower (the median of the per-pair ratios head ns/op ÷ base
// ns/op is above maxRatio and its distribution-free 95% confidence
// interval lies above 1) or allocates more (head's median allocs/op is
// more than maxAllocGrowth above base's).
//
// The parent is HEAD if the working tree has uncommitted changes, else
// HEAD~1, exported with git archive to a temporary directory: neither the
// checkout nor .git is written. With no checkout or parent, it exits 0.
package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"flexsnoop/internal/stats"
)

const (
	pairs          = 80    // ABBA pairs of runs
	maxRatio       = 1.05  // timed: the largest median head/base ns/op ratio that passes
	maxAllocGrowth = 0.001 // exact: the largest relative growth of median allocs/op that passes
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	start := time.Now()
	root, err := command("git", "rev-parse", "--show-toplevel")
	if err != nil {
		fmt.Println("bench: no git checkout, nothing to compare against")
		return nil
	}
	status, err := command("git", "-C", root, "--no-optional-locks", "status", "--porcelain")
	if err != nil {
		return err
	}
	rev := "HEAD~1"
	if status != "" {
		rev = "HEAD"
	}
	base, err := command("git", "-C", root, "rev-parse", "--verify", "--quiet", rev+"^{commit}")
	if err != nil {
		fmt.Printf("bench: no parent commit %s, nothing to compare against\n", rev)
		return nil
	}

	tmp, err := os.MkdirTemp("", "flexsnoop-bench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	src, tar := filepath.Join(tmp, "base"), filepath.Join(tmp, "base.tar")
	bins := [2]string{filepath.Join(tmp, "base.test"), filepath.Join(tmp, "head.test")}
	for _, args := range [][]string{
		{"git", "-C", root, "archive", "--prefix=base/", "-o", tar, base},
		{"tar", "-xf", tar, "-C", tmp},
		{"cp", filepath.Join(root, "benchgate_test.go"), src},
		{"go", "test", "-C", src, "-c", "-o", bins[0], "."},
		{"go", "test", "-C", root, "-c", "-o", bins[1], "."},
	} {
		if _, err := command(args[0], args[1:]...); err != nil {
			return err
		}
	}

	ps := make([]pair, pairs)
	for i := range ps {
		first := (i + 1) / 2 % 2 // base first in pairs 0 and 3 of every four
		for _, side := range [2]int{first, 1 - first} {
			out, err := command(bins[side], "-test.run", "^$", "-test.bench", "^BenchmarkGate$",
				"-test.benchtime", "1x", "-test.benchmem", "-test.timeout", "2m")
			if err != nil {
				return err
			}
			if ps[i][side] = parse(out); len(ps[i][side]) == 0 {
				return fmt.Errorf("%s printed no BenchmarkGate results:\n%s", filepath.Base(bins[side]), out)
			}
		}
	}

	t := stats.NewTable(fmt.Sprintf("Benchmark gate: working tree vs %.12s (%s)", base, rev),
		"Sub-benchmark", "time ratio", "95% CI", "base allocs/op", "head allocs/op", "verdict")
	failed := 0
	vs := judge(ps)
	for _, v := range vs {
		verdict := "ok"
		if v.fail != "" {
			verdict, failed = "FAIL: "+v.fail, failed+1
		}
		t.AddRowf(v.name, v.ratio, fmt.Sprintf("[%.3f, %.3f]", v.lo, v.hi), int64(v.baseAllocs), int64(v.headAllocs), verdict)
	}
	fmt.Printf("%s\n%d ABBA pairs, %s\n", t, pairs, time.Since(start).Round(time.Second))
	if failed > 0 {
		return fmt.Errorf("%d of %d sub-benchmarks regressed", failed, len(vs))
	}
	return nil
}

// command runs a command and returns its trimmed standard output. A
// failure carries everything the command printed.
func command(name string, args ...string) (string, error) {
	var stdout, stderr strings.Builder
	cmd := exec.Command(name, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("%s %s: %v\n%s%s", name, strings.Join(args, " "), err, &stdout, &stderr)
	}
	return strings.TrimSpace(stdout.String()), nil
}

// sample is one run's measurement of one sub-benchmark.
type sample struct{ ns, allocs float64 }

// pair is one ABBA pair of runs (base, head), keyed by sub-benchmark name.
type pair [2]map[string]sample

// benchLine matches one BenchmarkGate result line, dropping the
// -GOMAXPROCS suffix from the sub-benchmark name.
var benchLine = regexp.MustCompile(`(?m)^BenchmarkGate/(\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op.*\s(\d+) allocs/op`)

// parse extracts every sub-benchmark's result from one run's output.
func parse(out string) map[string]sample {
	got := map[string]sample{}
	for _, m := range benchLine.FindAllStringSubmatch(out, -1) {
		ns, _ := strconv.ParseFloat(m[2], 64)
		allocs, _ := strconv.ParseFloat(m[3], 64)
		got[m[1]] = sample{ns: ns, allocs: allocs}
	}
	return got
}

// verdict is the gate's decision on one sub-benchmark.
type verdict struct {
	name                   string
	ratio, lo, hi          float64 // median head/base ns/op ratio and its 95% CI
	baseAllocs, headAllocs float64 // median allocs/op
	fail                   string  // why the sub-benchmark fails; "" passes
}

// judge decides every sub-benchmark that appears in any run, in name
// order. One missing from either side of any pair fails.
func judge(ps []pair) []verdict {
	runs := map[string]int{}
	for _, p := range ps {
		for _, m := range p {
			for name := range m {
				runs[name]++
			}
		}
	}
	var vs []verdict
	for name, n := range runs {
		v := verdict{name: name}
		if n < 2*len(ps) {
			v.fail = "missing from a run"
			vs = append(vs, v)
			continue
		}
		var ratios, baseAllocs, headAllocs []float64
		for _, p := range ps {
			ratios = append(ratios, p[1][name].ns/p[0][name].ns)
			baseAllocs, headAllocs = append(baseAllocs, p[0][name].allocs), append(headAllocs, p[1][name].allocs)
		}
		v.ratio, v.lo, v.hi = medianCI(ratios)
		v.baseAllocs, _, _ = medianCI(baseAllocs)
		v.headAllocs, _, _ = medianCI(headAllocs)
		if v.ratio > maxRatio && v.lo > 1 {
			v.fail = "slower"
		} else if v.headAllocs > v.baseAllocs*(1+maxAllocGrowth) {
			v.fail = "more allocs/op"
		}
		vs = append(vs, v)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i].name < vs[j].name })
	return vs
}

// medianCI sorts s and returns its median and the median's distribution-free
// 95% confidence interval [s(k), s(n+1-k)], k the largest rank with
// P(B < k) <= 2.5% for B ~ Binomial(n, 1/2): ranks 14 and 27 at n = 40.
func medianCI(s []float64) (median, lo, hi float64) {
	sort.Float64s(s)
	n := len(s)
	// pj is P(B = j) and cdf is P(B <= j).
	k, pj, cdf := 1, math.Pow(0.5, float64(n)), 0.0
	for j := 0; j < n/2; j++ {
		if cdf += pj; cdf > 0.025 {
			break
		}
		k = j + 1
		pj *= float64(n-j) / float64(j+1)
	}
	return (s[(n-1)/2] + s[n/2]) / 2, s[k-1], s[n-k]
}
