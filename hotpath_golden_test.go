package flexsnoop_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"flexsnoop"
)

// These tests pin the determinism contract across the hot-path data
// structures. The simulation's observable output — the Result document
// and the telemetry trace byte stream — must match a digest recorded
// once and never re-recorded, and must be bit-identical across repeated
// fault-injected runs, traced or not. Any hash-table or iteration-order
// dependence introduced on the hot path breaks one of these comparisons
// immediately.

// runTraced executes one run and returns its Result as canonical JSON,
// the raw trace bytes, and the digest of its integer output.
func runTraced(t *testing.T, alg flexsnoop.Algorithm, wl string, opts flexsnoop.Options) (doc, trace []byte, digest string) {
	t.Helper()
	var buf bytes.Buffer
	opts.Telemetry = &flexsnoop.TelemetryOptions{Trace: &buf, TraceFormat: flexsnoop.TraceFormatJSONL}
	res, err := flexsnoop.Simulate(context.Background(), alg, flexsnoop.FromWorkload(wl), opts)
	if err != nil {
		t.Fatalf("%v/%s: %v", alg, wl, err)
	}
	doc, err = json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return doc, buf.Bytes(), outputDigest(t, res, buf.Bytes())
}

// outputDigest is the SHA-256 of a run's integer output: Cycles, every
// Stats counter and the JSONL trace bytes. The float fields (IPC and
// energy) are left out, because an architecture that fuses
// multiply-adds may round them differently.
func outputDigest(t *testing.T, res flexsnoop.Result, trace []byte) string {
	t.Helper()
	stats, err := json.Marshal(res.Stats)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "cycles=%d\nstats=%s\n", res.Cycles, stats)
	h.Write(trace)
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenRecordedDigests pins absolute simulator output. The digests
// were recorded once; a failure means a change moved an event, a cycle
// or a counter. Do not re-record them to make a refactor pass.
func TestGoldenRecordedDigests(t *testing.T) {
	want := map[flexsnoop.Algorithm]string{
		flexsnoop.Lazy:        "5dfe58e9f2030cb3d3ac27a6464ff68c3f8b11c205911a1ea5ed8b105c2a3bb1",
		flexsnoop.SupersetAgg: "90ac983576aeedc97a185e4a05536026d7831ea735da72d2efcce32e79eeef3f",
		flexsnoop.Exact:       "8d85f98338f05ea2b63bfbfdd83ee7f5bd0a907473b31d63fd73e97774b2eceb",
	}
	for _, alg := range []flexsnoop.Algorithm{flexsnoop.Lazy, flexsnoop.SupersetAgg, flexsnoop.Exact} {
		_, _, got := runTraced(t, alg, "barnes", flexsnoop.Options{OpsPerCore: 300, Seed: 5})
		if got != want[alg] {
			t.Errorf("%v/barnes output digest drifted:\n got %s\nwant %s", alg, got, want[alg])
		}
	}
}

func TestGoldenFaultRunByteIdentity(t *testing.T) {
	// Recorded once, like the digests of TestGoldenRecordedDigests.
	const wantDigest = "c32450488a44d3173a55fee012bbe5176cd72de4f9d050e92d1802ff5eafb1af"
	plan, err := flexsnoop.ParseFaultPlan("kind=drop,rate=0.03,seed=3;kind=dup,rate=0.03,seed=4;kind=delay,rate=0.05,delay=80,seed=5")
	if err != nil {
		t.Fatal(err)
	}
	opts := flexsnoop.Options{OpsPerCore: 250, Seed: 5, Faults: plan, CheckEvery: 5000}

	doc1, trace1, digest := runTraced(t, flexsnoop.SupersetAgg, "fft", opts)
	doc2, trace2, _ := runTraced(t, flexsnoop.SupersetAgg, "fft", opts)
	if !bytes.Equal(doc1, doc2) {
		t.Errorf("repeated fault runs differ:\n 1: %s\n 2: %s", doc1, doc2)
	}
	if !bytes.Equal(trace1, trace2) {
		t.Errorf("repeated fault runs produced different trace bytes (%d vs %d)", len(trace1), len(trace2))
	}
	if digest != wantDigest {
		t.Errorf("fault run output digest drifted:\n got %s\nwant %s", digest, wantDigest)
	}

	// Tracing itself must not perturb the simulation: an untraced run's
	// Result matches the traced one byte for byte.
	res, err := flexsnoop.Simulate(context.Background(), flexsnoop.SupersetAgg, flexsnoop.FromWorkload("fft"), opts)
	if err != nil {
		t.Fatal(err)
	}
	plainDoc, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc1, plainDoc) {
		t.Errorf("traced and untraced fault runs differ:\n traced:   %s\n untraced: %s", doc1, plainDoc)
	}
}
