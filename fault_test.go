package flexsnoop_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"flexsnoop"
)

// faultOpts builds one run's options with a parsed fault plan and a
// JSONL telemetry trace capturing the run's event fingerprint.
func faultOpts(t *testing.T, spec string, trace *bytes.Buffer) flexsnoop.Options {
	t.Helper()
	plan, err := flexsnoop.ParseFaultPlan(spec)
	if err != nil {
		t.Fatalf("ParseFaultPlan(%q): %v", spec, err)
	}
	opts := flexsnoop.Options{
		OpsPerCore: 400, Seed: 7,
		Faults:     plan,
		CheckEvery: 2000,
	}
	if trace != nil {
		opts.Telemetry = &flexsnoop.TelemetryOptions{
			Trace: trace, TraceFormat: flexsnoop.TraceFormatJSONL,
		}
	}
	return opts
}

// TestFaultDeterminism pins the fault layer's reproducibility contract:
// the same seed and the same plan give bit-identical final statistics
// and a byte-identical telemetry fingerprint.
func TestFaultDeterminism(t *testing.T) {
	const spec = "kind=drop,rate=0.05,seed=3;kind=delay,rate=0.1,delay=120,seed=9;kind=dup,rate=0.03,seed=5"
	var traceA, traceB bytes.Buffer
	a, err := flexsnoop.Simulate(context.Background(), flexsnoop.SupersetAgg, flexsnoop.FromWorkload("water-sp"), faultOpts(t, spec, &traceA))
	if err != nil {
		t.Fatal(err)
	}
	b, err := flexsnoop.Simulate(context.Background(), flexsnoop.SupersetAgg, flexsnoop.FromWorkload("water-sp"), faultOpts(t, spec, &traceB))
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Stats != b.Stats || a.EnergyNJ != b.EnergyNJ {
		t.Fatal("identical faulty runs produced different results — fault determinism broken")
	}
	if !bytes.Equal(traceA.Bytes(), traceB.Bytes()) {
		t.Fatal("identical faulty runs produced different telemetry traces")
	}
	if a.Stats.FaultDrops == 0 || a.Stats.FaultDelays == 0 || a.Stats.FaultDups == 0 {
		t.Errorf("fault plan injected nothing: drops=%d delays=%d dups=%d",
			a.Stats.FaultDrops, a.Stats.FaultDelays, a.Stats.FaultDups)
	}
}

// TestFaultPlansComplete is the documented robustness envelope: every
// plan with drop/delay rates at or below 10% completes every workload
// under the continuous checker, for both an adaptive and a baseline
// algorithm.
func TestFaultPlansComplete(t *testing.T) {
	plans := []struct{ name, spec string }{
		{"drop10", "kind=drop,rate=0.1,seed=1"},
		{"jitter", "kind=delay,rate=0.1,delay=200,seed=2"},
		{"mixed", "kind=drop,rate=0.05,seed=3;kind=dup,rate=0.05,seed=4;kind=delay,rate=0.05,delay=80,seed=5"},
	}
	for _, alg := range []flexsnoop.Algorithm{flexsnoop.Lazy, flexsnoop.SupersetAgg} {
		for _, p := range plans {
			res, err := flexsnoop.Simulate(context.Background(), alg, flexsnoop.FromWorkload("fft"), faultOpts(t, p.spec, nil))
			if err != nil {
				t.Errorf("%v/%s: %v", alg, p.name, err)
				continue
			}
			if res.Stats.FaultDrops+res.Stats.FaultDelays+res.Stats.FaultDups == 0 {
				t.Errorf("%v/%s: no faults injected", alg, p.name)
			}
		}
	}
}

// TestFaultMatrixDriver exercises the RunFaultMatrix experiment driver
// end to end.
func TestFaultMatrixDriver(t *testing.T) {
	drop, err := flexsnoop.ParseFaultPlan("kind=drop,rate=0.05,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := flexsnoop.RunFaultMatrix("fft", []flexsnoop.FaultScenario{{Name: "drop5", Plan: drop}},
		flexsnoop.FigureOptions{OpsPerCore: 300, Algorithms: []flexsnoop.Algorithm{flexsnoop.Lazy, flexsnoop.SupersetAgg}})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(cells))
	}
	for _, c := range cells {
		if c.Result.Cycles == 0 || c.Result.Stats.FaultDrops == 0 {
			t.Errorf("%s/%v: empty cell (%d cycles, %d drops)", c.Scenario, c.Algorithm, c.Result.Cycles, c.Result.Stats.FaultDrops)
		}
	}
}

// TestTimeoutRecovery drives the snoop-response deadline: a small rate
// of very large delays (beyond the deadline) forces timeouts and
// retransmits, and the run must still complete with coherent state.
func TestTimeoutRecovery(t *testing.T) {
	res, err := flexsnoop.Simulate(context.Background(), flexsnoop.SupersetAgg, flexsnoop.FromWorkload("fft"),
		faultOpts(t, "kind=delay,rate=0.02,delay=20000,seed=3", nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SnoopTimeouts == 0 {
		t.Error("beyond-deadline delays produced no snoop timeouts")
	}
	if res.Stats.Retries == 0 {
		t.Error("timeouts produced no retransmits")
	}
}

// TestWatchdogLivelock verifies a plan that can make no progress (every
// segment dropped) is detected by the watchdog within its window,
// classified as livelock (retry churn keeps advancing), and dumps the
// transaction graph into the telemetry trace.
func TestWatchdogLivelock(t *testing.T) {
	plan, err := flexsnoop.ParseFaultPlan("kind=drop,rate=1,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	_, err = flexsnoop.Simulate(context.Background(), flexsnoop.Lazy, flexsnoop.FromWorkload("fft"), flexsnoop.Options{
		OpsPerCore: 200, Seed: 7,
		Faults:         plan,
		WatchdogWindow: 20000,
		Telemetry: &flexsnoop.TelemetryOptions{
			Trace: &trace, TraceFormat: flexsnoop.TraceFormatJSONL,
		},
	})
	if err == nil {
		t.Fatal("total drop plan completed — watchdog never fired")
	}
	if !strings.Contains(err.Error(), "watchdog") || !strings.Contains(err.Error(), "livelock") {
		t.Errorf("error lacks watchdog livelock verdict: %v", err)
	}
	out := trace.String()
	if !strings.Contains(out, "watchdog") || !strings.Contains(out, "watchdog-dump") {
		t.Error("telemetry trace lacks the watchdog dump")
	}
}

// TestWatchdogDegrade verifies graceful degradation: a transient total
// outage trips the watchdog, which forces Eager forwarding on live
// lines instead of failing; once the outage window closes the run
// completes.
func TestWatchdogDegrade(t *testing.T) {
	plan, err := flexsnoop.ParseFaultPlan("kind=drop,rate=1,until=15000,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := flexsnoop.Simulate(context.Background(), flexsnoop.SupersetAgg, flexsnoop.FromWorkload("fft"), flexsnoop.Options{
		OpsPerCore: 200, Seed: 7,
		Faults:          plan,
		WatchdogWindow:  10000,
		WatchdogDegrade: true,
	})
	if err != nil {
		t.Fatalf("degrading watchdog failed the run: %v", err)
	}
	if res.Stats.DegradedLines == 0 {
		t.Error("watchdog degraded nothing during the outage")
	}
}

// TestRobustnessLayersCycleIdentical pins the acceptance contract: with
// faults disabled, arming the watchdog and the continuous checker is
// cycle-identical to a bare run.
func TestRobustnessLayersCycleIdentical(t *testing.T) {
	base, err := flexsnoop.Simulate(context.Background(), flexsnoop.SupersetCon, flexsnoop.FromWorkload("water-sp"), flexsnoop.Options{OpsPerCore: 400, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	armed, err := flexsnoop.Simulate(context.Background(), flexsnoop.SupersetCon, flexsnoop.FromWorkload("water-sp"), flexsnoop.Options{
		OpsPerCore: 400, Seed: 7,
		WatchdogWindow: 5000, CheckEvery: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if base.Cycles != armed.Cycles || base.Stats != armed.Stats || base.EnergyNJ != armed.EnergyNJ {
		t.Fatalf("armed watchdog+checker perturbed the run: %d vs %d cycles", armed.Cycles, base.Cycles)
	}
}

// TestParseFaultPlanErrors pins the parser's error surface at the public
// API: every malformed spec wraps ErrFaultPlan, and the message names
// what is wrong (callers echo it verbatim to CLI users).
func TestParseFaultPlanErrors(t *testing.T) {
	cases := []struct {
		spec string
		want string // substring the error must carry
	}{
		{"kind=meteor", "meteor"},                  // unknown kind
		{"kind=drop,rate=1.5", "rate"},             // rate above 1
		{"kind=drop,rate=-0.1", "rate"},            // rate below 0
		{"kind=drop,rate=0.5;", "empty"},           // trailing separator
		{";kind=drop", "empty"},                    // leading separator
		{"rate=0.5", "kind"},                       // missing kind
		{"kind=drop,rate", "key=value"},            // field without '='
		{"kind=delay,rate=0.1,delay=abc", "delay"}, // unparsable value
	}
	for _, tc := range cases {
		_, err := flexsnoop.ParseFaultPlan(tc.spec)
		if !errors.Is(err, flexsnoop.ErrFaultPlan) {
			t.Errorf("ParseFaultPlan(%q) = %v, want ErrFaultPlan", tc.spec, err)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseFaultPlan(%q) error %q does not mention %q", tc.spec, err, tc.want)
		}
	}
}

// TestFaultOptionValidation covers the error surface: malformed plans
// wrap ErrFaultPlan, and the configuration validator rejects the
// latency/backoff degeneracies the retry machinery depends on.
func TestFaultOptionValidation(t *testing.T) {
	if _, err := flexsnoop.ParseFaultPlan("kind=sharknado"); !errors.Is(err, flexsnoop.ErrFaultPlan) {
		t.Errorf("bad kind: got %v, want ErrFaultPlan", err)
	}
	bad := &flexsnoop.FaultPlan{Rules: []flexsnoop.FaultRule{{Kind: flexsnoop.FaultDrop, Rate: 2}}}
	if _, err := flexsnoop.Simulate(context.Background(), flexsnoop.Lazy, flexsnoop.FromWorkload("fft"), flexsnoop.Options{Faults: bad}); !errors.Is(err, flexsnoop.ErrFaultPlan) {
		t.Errorf("out-of-range rate: got %v, want ErrFaultPlan", err)
	}
	if _, err := flexsnoop.Simulate(context.Background(), flexsnoop.Lazy, flexsnoop.FromWorkload("fft"), flexsnoop.Options{
		Tweak: func(m *flexsnoop.MachineConfig) { m.RingLinkCycles = 0 },
	}); !errors.Is(err, flexsnoop.ErrBadConfig) {
		t.Errorf("zero link latency: got %v, want ErrBadConfig", err)
	}
	if _, err := flexsnoop.Simulate(context.Background(), flexsnoop.Lazy, flexsnoop.FromWorkload("fft"), flexsnoop.Options{
		Tweak: func(m *flexsnoop.MachineConfig) { m.RetryBackoffCycles = 0 },
	}); !errors.Is(err, flexsnoop.ErrBadConfig) {
		t.Errorf("zero retry backoff: got %v, want ErrBadConfig", err)
	}
}
