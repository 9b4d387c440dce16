// Command sweep runs the supplier-predictor sensitivity study of Section
// 6.2 (Figures 10 and 11): every predictive algorithm with each of its
// three predictor sizes/organisations, reporting execution time normalised
// to the main (Section 6.1) configuration and the prediction accuracy
// breakdown.
//
// Usage:
//
//	sweep [-ops 2000] [-seed 1] [-apps a,b,c] [-v]
//	      [-faults "kind=drop,rate=0.05,seed=1"]
//	      [-remote http://HOST:PORT] [-parallel N]
//	      [-deadline 0s] [-clientid NAME]
//
// With -remote, every cell of the sweep is submitted to a running
// ringsimd server (see cmd/ringsimd) instead of simulating in-process.
// -deadline stamps each submitted cell with an end-to-end budget
// (deadline_ms) the server enforces even across federation; -clientid
// names this sweep for the server's per-client admission control. Both
// are transport attributes: they never change what an admitted cell
// computes.
// The simulator is deterministic, so remote results are bit-identical
// and the reported figures are unchanged; the server's queue provides
// the backpressure, and its cache collapses repeated sweeps. -remote
// takes one URL; to spread cells over several servers, pass the URL of a
// ringsimd coordinator, which fans out across its fleet with health
// checks and failover (see ringsimd -coordinator).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"flexsnoop"
	"flexsnoop/internal/cli"
	"flexsnoop/internal/service"
	"flexsnoop/internal/stats"
)

var (
	opsFlag      = flag.Uint64("ops", 2000, "memory references per core")
	seedFlag     = flag.Int64("seed", 1, "workload seed")
	appsFlag     = flag.String("apps", "", "comma-separated SPLASH-2 subset")
	verbose      = flag.Bool("v", false, "per-run progress")
	faultsFlag   = flag.String("faults", "", "fault plan applied to every run (see ringsim -faults)")
	remoteFlag   = flag.String("remote", "", "ringsimd base URL (a coordinator's, to use a fleet) to submit runs to instead of simulating in-process")
	parFlag      = flag.Int("parallel", 0, "concurrent cells (default GOMAXPROCS; with -remote, in-flight submissions)")
	deadlineFlag = flag.Duration("deadline", 0, "per-cell end-to-end deadline submitted with each remote run (0 = none; requires -remote)")
	clientIDFlag = flag.String("clientid", "", "client_id submitted with each remote run, for server-side rate limiting (requires -remote)")
)

func main() {
	flag.Parse()
	opts := flexsnoop.FigureOptions{OpsPerCore: *opsFlag, Seed: *seedFlag}
	if *appsFlag != "" {
		opts.Apps = strings.Split(*appsFlag, ",")
	}
	if *faultsFlag != "" {
		plan, err := flexsnoop.ParseFaultPlan(*faultsFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(cli.ExitCode(err))
		}
		opts.Faults = plan
	}
	if *verbose {
		opts.Progress = func(s string) { fmt.Fprintln(os.Stderr, "  "+s) }
	}
	opts.Parallelism = *parFlag
	if *remoteFlag != "" {
		if strings.Contains(*remoteFlag, ",") {
			fmt.Fprintln(os.Stderr, "sweep: -remote takes one URL; to run cells on several servers, start a ringsimd -coordinator in front of them and pass its URL")
			os.Exit(2)
		}
		c := &service.Client{BaseURL: strings.TrimRight(strings.TrimSpace(*remoteFlag), "/")}
		opts.Runner = func(ctx context.Context, alg flexsnoop.Algorithm, workload string, o flexsnoop.Options) (flexsnoop.Result, error) {
			spec, err := service.SpecFor(alg, workload, o)
			if err != nil {
				return flexsnoop.Result{}, err
			}
			spec.DeadlineMS = deadlineFlag.Milliseconds()
			spec.ClientID = *clientIDFlag
			return c.Run(ctx, spec)
		}
	} else if *deadlineFlag != 0 || *clientIDFlag != "" {
		fmt.Fprintln(os.Stderr, "sweep: -deadline and -clientid require -remote")
		os.Exit(2)
	}
	s, err := flexsnoop.RunSensitivity(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(cli.ExitCode(err))
	}

	sort.Slice(s.Cells, func(i, j int) bool {
		a, b := s.Cells[i], s.Cells[j]
		if a.Algorithm != b.Algorithm {
			return a.Algorithm < b.Algorithm
		}
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		return a.Predictor < b.Predictor
	})
	t := stats.NewTable("Figure 10: predictor sensitivity (execution time, normalised to the Section 6.1 configuration)",
		"Algorithm", "Class", "Predictor", "Normalised time", "TP", "TN", "FP", "FN")
	for _, c := range s.Cells {
		t.AddRowf(c.Algorithm.String(), c.Class, c.Predictor, c.CyclesNorm,
			c.TruePos, c.TrueNeg, c.FalsePos, c.FalseNeg)
	}
	fmt.Println(t)

	t2 := stats.NewTable("Figure 11: perfect predictor", "Class", "TP", "TN", "FP", "FN")
	for _, cl := range []string{"SPLASH-2", "SPECjbb", "SPECweb"} {
		if p, ok := s.Perfect[cl]; ok {
			t2.AddRowf(cl, p[0], p[1], p[2], p[3])
		}
	}
	fmt.Println(t2)
}
