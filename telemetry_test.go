package flexsnoop_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"flexsnoop"
)

// telemetryRun executes one fixed reference run with every telemetry
// output enabled, returning the result and the captured outputs.
func telemetryRun(t *testing.T, format string) (flexsnoop.Result, string, string) {
	t.Helper()
	var trace, metrics bytes.Buffer
	res, err := flexsnoop.Simulate(context.Background(), flexsnoop.SupersetAgg, flexsnoop.FromWorkload("water-sp"), flexsnoop.Options{
		OpsPerCore: 500, Seed: 7,
		Telemetry: &flexsnoop.TelemetryOptions{
			Trace: &trace, TraceFormat: format,
			Metrics: &metrics, IntervalCycles: 2000,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, trace.String(), metrics.String()
}

// TestTelemetryZeroPerturbation checks the subsystem's core contract:
// enabling telemetry must not change the simulation at all.
func TestTelemetryZeroPerturbation(t *testing.T) {
	plain, err := flexsnoop.Simulate(context.Background(), flexsnoop.SupersetAgg, flexsnoop.FromWorkload("water-sp"), flexsnoop.Options{
		OpsPerCore: 500, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	traced, _, _ := telemetryRun(t, flexsnoop.TraceFormatChrome)
	if plain.Cycles != traced.Cycles || plain.Stats != traced.Stats ||
		plain.EnergyNJ != traced.EnergyNJ || plain.Instructions != traced.Instructions {
		t.Fatalf("telemetry perturbed the run: plain %d cycles, traced %d cycles",
			plain.Cycles, traced.Cycles)
	}
}

// TestTelemetryDeterminism runs the same telemetry-enabled configuration
// twice and requires byte-identical trace and metrics outputs.
func TestTelemetryDeterminism(t *testing.T) {
	res1, trace1, metrics1 := telemetryRun(t, flexsnoop.TraceFormatChrome)
	res2, trace2, metrics2 := telemetryRun(t, flexsnoop.TraceFormatChrome)
	if res1.Cycles != res2.Cycles || res1.Stats != res2.Stats {
		t.Fatal("identical telemetry runs produced different results")
	}
	if trace1 != trace2 {
		t.Error("trace output is not deterministic")
	}
	if metrics1 != metrics2 {
		t.Error("metrics output is not deterministic")
	}
}

// TestTelemetryChromeTrace validates the Chrome trace-event export: a
// well-formed JSON object whose async begin/end events pair up per
// transaction id, covering every ring request of the run.
func TestTelemetryChromeTrace(t *testing.T) {
	res, trace, _ := telemetryRun(t, flexsnoop.TraceFormatChrome)
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
			TS    uint64 `json:"ts"`
			ID    uint64 `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(trace), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	open := map[uint64]bool{}
	var begins, lastTS uint64
	for _, e := range doc.TraceEvents {
		if e.Phase != "M" && e.TS < lastTS {
			t.Fatalf("trace timestamps not monotonic: %d after %d", e.TS, lastTS)
		}
		if e.Phase != "M" {
			lastTS = e.TS
		}
		switch e.Phase {
		case "b":
			if open[e.ID] {
				t.Fatalf("transaction %d begun twice", e.ID)
			}
			open[e.ID] = true
			begins++
		case "e":
			if !open[e.ID] {
				t.Fatalf("end without begin for transaction %d", e.ID)
			}
			delete(open, e.ID)
		}
	}
	if len(open) != 0 {
		t.Errorf("%d transactions never completed in the trace", len(open))
	}
	// Every ring request (including squashed attempts that retried with a
	// fresh transaction id) opened exactly one span.
	want := res.Stats.ReadRequests + res.Stats.WriteRequests
	if begins != want {
		t.Errorf("trace has %d transaction spans, stats report %d ring requests", begins, want)
	}
}

// TestTelemetryMetricsCSV validates the interval time-series export.
func TestTelemetryMetricsCSV(t *testing.T) {
	res, _, metrics := telemetryRun(t, flexsnoop.TraceFormatJSONL)
	lines := strings.Split(strings.TrimSuffix(metrics, "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("metrics CSV has no data rows:\n%s", metrics)
	}
	header := strings.Split(lines[0], ",")
	if header[0] != "cycle" || len(header) < 10 {
		t.Fatalf("unexpected CSV header %q", lines[0])
	}
	var prevCycle uint64
	for _, line := range lines[1:] {
		fields := strings.Split(line, ",")
		if len(fields) != len(header) {
			t.Fatalf("row %q has %d fields, header has %d", line, len(fields), len(header))
		}
		cycle, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			t.Fatalf("bad cycle %q: %v", fields[0], err)
		}
		if cycle <= prevCycle {
			t.Fatalf("cycle column not increasing: %d after %d", cycle, prevCycle)
		}
		prevCycle = cycle
	}
	// The last row's boundary is the kernel's final cycle, which can lag
	// the retirement of the last core by in-flight drain but never
	// precede it by more than one interval.
	if prevCycle+2000 < uint64(res.Cycles) {
		t.Errorf("final sample at cycle %d, run retired at %d", prevCycle, res.Cycles)
	}
}

// TestTelemetryJSONLTrace checks the JSONL export parses line by line.
func TestTelemetryJSONLTrace(t *testing.T) {
	_, trace, _ := telemetryRun(t, flexsnoop.TraceFormatJSONL)
	lines := strings.Split(strings.TrimSuffix(trace, "\n"), "\n")
	if len(lines) == 0 {
		t.Fatal("empty JSONL trace")
	}
	for i, line := range lines {
		var e struct {
			Cycle uint64 `json:"cycle"`
			Event string `json:"event"`
			Txn   uint64 `json:"txn"`
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %d %q: %v", i, line, err)
		}
		if e.Event == "" {
			t.Fatalf("line %d has no event name: %q", i, line)
		}
	}
}
