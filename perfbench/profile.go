package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// cpuLayers are the packages a CPU profile is split into: the
// flexsnoop/internal packages that take a visible share on the
// simulation and service paths, the root flexsnoop package, the Go
// runtime (scheduler and GC), net/http, and the rest ("other", which
// includes the internal packages too small to name).
var cpuLayers = []string{
	"flexsnoop", "cache", "checker", "fault", "hotmap", "journal", "machine",
	"memory", "predictor", "protocol", "ring", "service", "sim", "telemetry",
	"workload", "runtime", "net_http", "other",
}

// cpuShares attributes each sample of the CPU profile at path to the
// innermost flexsnoop/internal/<pkg> frame of its stack, or else to the
// root flexsnoop package, net/http, the runtime (by leaf frame) or
// "other". It reads the samples with `go tool pprof -traces`, leaving out
// those labelled perfbench=client (the load generator), and returns each
// layer's share of the remaining CPU time.
func cpuShares(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", "-unit=ns",
		"-tagignore=perfbench=client", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	known := map[string]bool{}
	for _, l := range cpuLayers {
		known[l] = true
	}
	byLayer := map[string]int64{}
	var total int64
	var value int64
	var frames []string // the current sample's stack, leaf first
	flush := func() {
		if value > 0 {
			layer := attribute(frames)
			if !known[layer] {
				layer = "other"
			}
			byLayer[layer] += value
			total += value
		}
		value, frames = 0, nil
	}
	// Each sample is a separator line, then its value beside the leaf
	// frame, then one caller frame per line.
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "-----------+"):
			flush()
		case len(f) >= 2 && strings.HasSuffix(f[0], "ns") && isDigits(strings.TrimSuffix(f[0], "ns")):
			value, _ = strconv.ParseInt(strings.TrimSuffix(f[0], "ns"), 10, 64)
			frames = []string{f[1]}
		case value > 0 && len(f) >= 1:
			frames = append(frames, f[0])
		}
	}
	flush()
	if total == 0 {
		return nil, errors.New("profile: no samples")
	}
	shares := map[string]float64{}
	for _, l := range cpuLayers {
		shares[l] = float64(byLayer[l]) / float64(total)
	}
	return shares, nil
}

func isDigits(s string) bool {
	return s != "" && strings.Trim(s, "0123456789") == ""
}

// attribute picks the layer of one stack, given leaf first.
func attribute(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, "flexsnoop/internal/"); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "flexsnoop.") {
			return "flexsnoop"
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "net/http.") {
			return "net_http"
		}
	}
	if len(frames) > 0 && strings.HasPrefix(frames[0], "runtime.") {
		return "runtime"
	}
	return "other"
}
