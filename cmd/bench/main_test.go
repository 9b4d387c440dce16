package main

import (
	"math/rand"
	"testing"
)

// synth builds pairs runs of one sub-benchmark: base ns/op near 100 ms
// and head ns/op scaled by slow, each with independent ±10% uniform
// noise, and fixed allocs/op on each side.
func synth(seed int64, slow, baseAllocs, headAllocs float64) []pair {
	r := rand.New(rand.NewSource(seed))
	noise := func() float64 { return 0.9 + 0.2*r.Float64() }
	ps := make([]pair, pairs)
	for i := range ps {
		ps[i] = pair{
			{"matrix-subset": {ns: 1e8 * noise(), allocs: baseAllocs}},
			{"matrix-subset": {ns: 1e8 * slow * noise(), allocs: headAllocs}},
		}
	}
	return ps
}

// failures counts the seeds out of 20 on which the gate fails.
func failures(slow, baseAllocs, headAllocs float64) int {
	n := 0
	for seed := int64(1); seed <= 20; seed++ {
		if judge(synth(seed, slow, baseAllocs, headAllocs))[0].fail != "" {
			n++
		}
	}
	return n
}

func TestJudgeTimed(t *testing.T) {
	if n := failures(1, 1000, 1000); n > 1 {
		t.Errorf("identical distributions failed %d of 20 times, want at most 1", n)
	}
	if n := failures(1.10, 1000, 1000); n < 19 {
		t.Errorf("a 10%% slowdown failed only %d of 20 times, want at least 19", n)
	}
	if n := failures(0.8, 1000, 1000); n != 0 {
		t.Errorf("a 20%% speedup failed %d of 20 times, want 0", n)
	}
}

func TestJudgeAllocs(t *testing.T) {
	for _, c := range []struct {
		head float64
		fail bool
	}{
		{head: 100_000, fail: false},
		{head: 100_050, fail: false}, // +0.05%: within the tolerance
		{head: 100_200, fail: true},  // +0.2%
		{head: 90_000, fail: false},  // leaner
	} {
		v := judge(synth(1, 1, 100_000, c.head))[0]
		if got := v.fail != ""; got != c.fail {
			t.Errorf("base 100000 vs head %.0f allocs/op: fail = %q, want failing %v", c.head, v.fail, c.fail)
		}
	}
}

func TestJudgeMissingSubBenchmark(t *testing.T) {
	for side, sideName := range []string{"base", "head"} {
		ps := synth(1, 1, 1000, 1000)
		for i := range ps {
			ps[i][0]["trace-replay"] = sample{ns: 1e8, allocs: 1}
			ps[i][1]["trace-replay"] = sample{ns: 1e8, allocs: 1}
		}
		delete(ps[3][side], "trace-replay")
		vs := judge(ps)
		if len(vs) != 2 || vs[0].name != "matrix-subset" || vs[1].name != "trace-replay" {
			t.Fatalf("verdicts = %+v, want matrix-subset and trace-replay", vs)
		}
		if vs[0].fail != "" || vs[1].fail == "" {
			t.Errorf("trace-replay missing from one %s run: verdicts %+v, want only trace-replay failing", sideName, vs)
		}
	}
}

func TestMedianCIRanks(t *testing.T) {
	xs := make([]float64, 40)
	for i, j := range rand.New(rand.NewSource(1)).Perm(40) {
		xs[i] = float64(j + 1)
	}
	if m, lo, hi := medianCI(xs); m != 20.5 || lo != 14 || hi != 27 {
		t.Errorf("medianCI(1..40) = %v [%v, %v], want 20.5 [14, 27]", m, lo, hi)
	}
}

func TestParse(t *testing.T) {
	out := "goos: linux\n" +
		"BenchmarkGate/matrix-subset-2         \t       1\t 557310611 ns/op\t72118960 B/op\t   46831 allocs/op\n" +
		"BenchmarkGate/scaling-16cmp           \t       1\t 135004962 ns/op\t 8977456 B/op\t    7981 allocs/op\n" +
		"PASS\n"
	got := parse(out)
	want := map[string]sample{
		"matrix-subset": {ns: 557310611, allocs: 46831},
		"scaling-16cmp": {ns: 135004962, allocs: 7981},
	}
	if len(got) != len(want) {
		t.Fatalf("parse = %v, want %v", got, want)
	}
	for name, s := range want {
		if got[name] != s {
			t.Errorf("parse[%s] = %+v, want %+v", name, got[name], s)
		}
	}
}
