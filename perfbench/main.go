// Command perfbench is the repository's benchmark: one load-generating
// process that measures the simulator in-process and the ringsimd daemon
// over loopback, end to end, and with -trace 1 layer by layer. See
// README.md in this directory for the workloads and metrics.
//
// Usage (run.sh builds ringsimd and this program, then runs it):
//
//	perfbench -ringsimd BIN -out DIR --workload sim-matrix|svc-miss|svc-hit
//	          --seed N --seconds S --trace 0|1
//	perfbench -record-digests N > digests.json
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

var (
	workloadFlag = flag.String("workload", "", "sim-matrix, svc-miss or svc-hit")
	seedFlag     = flag.Int64("seed", 1, "workload seed (positive)")
	secondsFlag  = flag.Float64("seconds", 10, "length of the measured region in seconds")
	traceFlag    = flag.Int("trace", 0, "1: traced run, reporting the per-layer metrics")
	ringsimdFlag = flag.String("ringsimd", "", "ringsimd binary built from the tree under test")
	outFlag      = flag.String("out", "", "directory for scratch files, spans and profiles")

	setupProbeFlag = flag.Bool("setup-probe", false, "internal: run one warm-up Simulate and exit")
	recordFlag     = flag.Int("record-digests", 0, "write digests.json for seeds 1..N to stdout and exit")
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) put(name string, v float64, unit string) { m[name] = metric{v, unit} }

// report is the result line.
type report struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// runner is a workload after set-up.
type runner interface {
	// timed runs the timed region, calling pause, if not nil, at
	// setupPauses points spread over it.
	timed(e *env, d time.Duration, tr *tracer, pause func() error) (e2e, error)
	// setUp times n more set-ups, which leave the running workload as it is.
	setUp(e *env, n int) error
	setupTimes() []time.Duration
	close() error
}

func (w *simMatrix) close() error { return nil }

func main() {
	flag.Parse()
	ctx := context.Background()
	switch {
	case *setupProbeFlag:
		if err := setupProbe(ctx, *seedFlag); err != nil {
			fatal(err)
		}
		return
	case *recordFlag > 0:
		if err := recordDigests(ctx, *recordFlag, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	rep, err := run(ctx)
	if err != nil {
		fatal(err)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func run(ctx context.Context) (rep report, err error) {
	if *seedFlag <= 0 || *secondsFlag <= 0 || *ringsimdFlag == "" || *outFlag == "" {
		return rep, errors.New("need a positive -seed and -seconds, -ringsimd and -out")
	}
	rec, err := loadDigests()
	if err != nil {
		return rep, err
	}
	self, err := os.Executable()
	if err != nil {
		return rep, err
	}
	if err := os.MkdirAll(*outFlag, 0o755); err != nil {
		return rep, err
	}
	work, err := os.MkdirTemp(*outFlag, "run-")
	if err != nil {
		return rep, err
	}
	defer os.RemoveAll(work)
	e := &env{ctx: ctx, seed: *seedFlag, bin: *ringsimdFlag, self: self, work: work, rec: rec}

	var w runner
	switch *workloadFlag {
	case "sim-matrix":
		w, err = newSimMatrix(e)
	case "svc-miss":
		w, err = newSvc(e, false)
	case "svc-hit":
		w, err = newSvc(e, true)
	default:
		return rep, fmt.Errorf("unknown workload %q", *workloadFlag)
	}
	if err != nil {
		return rep, err
	}
	defer func() {
		if cerr := w.close(); err == nil && cerr != nil {
			err = fmt.Errorf("stopping the workload: %w", cerr)
		}
	}()

	d := time.Duration(*secondsFlag * float64(time.Second))
	if *traceFlag == 0 {
		r, err := w.timed(e, d, nil, func() error { return w.setUp(e, setupsPerPause) })
		if err != nil {
			return rep, err
		}
		times := w.setupTimes()
		r.setup = median(times)
		fmt.Printf("set-up: median of %d, spread over the run; fastest %.4g ms, slowest %.4g ms\n",
			len(times), ms(slices.Min(times)), ms(slices.Max(times)))
		fmt.Println(r.describe())
		return report{Correct: r.failed == 0, Attempted: max(r.jobs, 1), Failed: r.failed, Metrics: r.metrics()}, nil
	}
	return tracedRun(e, w, d)
}

// tracedRun measures the workload untraced and then traced for half the
// time each, prints the difference as the tracing overhead, runs the
// layer probes and writes the spans and the CPU profile to -out.
func tracedRun(e *env, w runner, d time.Duration) (report, error) {
	var rep report
	untraced, err := w.timed(e, d/2, nil, nil)
	if err != nil {
		return rep, err
	}
	tr := newTracer()
	traced, err := w.timed(e, d/2, tr, nil)
	if err != nil {
		return rep, err
	}
	untraced.setup = median(w.setupTimes())
	traced.setup = untraced.setup
	base := fmt.Sprintf("%s-seed%d", *workloadFlag, e.seed)
	m, pc, err := layerProbes(e, tr, filepath.Join(*outFlag, base+".cpu.pprof"))
	if err != nil {
		return rep, err
	}
	fmt.Println("untraced:", untraced.describe())
	fmt.Println("traced:  ", traced.describe())
	um, tm := untraced.metrics(), traced.metrics()
	overhead := map[string]float64{}
	names := make([]string, 0, len(um))
	for k := range um {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Println("tracing overhead (traced minus untraced, same workload, half the time each):")
	for _, k := range names {
		delta := tm[k].Value - um[k].Value
		overhead[k] = delta
		fmt.Printf("  %-16s %+12.4f %-4s (%+.1f%%)\n", k, delta, um[k].Unit, 100*delta/um[k].Value)
	}
	m.put("trace.overhead_pct", 100*(um["jobs_per_s"].Value-tm["jobs_per_s"].Value)/um["jobs_per_s"].Value, "%")
	spans := filepath.Join(*outFlag, base+".spans.json")
	if err := tr.write(spans, map[string]any{
		"workload": *workloadFlag, "seed": e.seed,
		"untraced": um, "traced": tm, "overhead": overhead, "layers": m,
	}); err != nil {
		return rep, err
	}
	fmt.Println("spans:", spans)
	failed := untraced.failed + traced.failed + pc.failed
	return report{
		Correct:   failed == 0,
		Attempted: untraced.jobs + traced.jobs + pc.attempted,
		Failed:    failed,
		Metrics:   m,
	}, nil
}
