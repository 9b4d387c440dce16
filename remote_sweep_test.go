package flexsnoop_test

import (
	"context"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"

	"flexsnoop"
	"flexsnoop/internal/service"
)

// TestSensitivityRemoteRunner drives RunSensitivity through the
// FigureOptions.Runner seam against a real service server (the same path
// `sweep -remote` uses) and requires the derived figures to be
// bit-identical to the in-process sweep: determinism makes remote
// execution an invisible implementation detail.
func TestSensitivityRemoteRunner(t *testing.T) {
	if testing.Short() {
		t.Skip("remote sweep runs the full sensitivity grid twice")
	}

	opts := flexsnoop.FigureOptions{OpsPerCore: 200, Seed: 3, Apps: []string{"fft"}}
	local, err := flexsnoop.RunSensitivity(opts)
	if err != nil {
		t.Fatalf("in-process sweep: %v", err)
	}

	srv, err := service.New(service.Config{Workers: 4, QueueCapacity: 4})
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &service.Client{BaseURL: ts.URL}

	remoteOpts := opts
	remoteOpts.Runner = func(ctx context.Context, alg flexsnoop.Algorithm, workload string, o flexsnoop.Options) (flexsnoop.Result, error) {
		spec, err := service.SpecFor(alg, workload, o)
		if err != nil {
			return flexsnoop.Result{}, err
		}
		return c.Run(ctx, spec)
	}
	remote, err := flexsnoop.RunSensitivity(remoteOpts)
	if err != nil {
		t.Fatalf("remote sweep: %v", err)
	}

	// Cells are emitted in map-iteration order; sort both sides the way
	// cmd/sweep does before rendering.
	sortCells := func(cells []flexsnoop.SensitivityResult) {
		sort.Slice(cells, func(i, j int) bool {
			a, b := cells[i], cells[j]
			if a.Algorithm != b.Algorithm {
				return a.Algorithm < b.Algorithm
			}
			if a.Class != b.Class {
				return a.Class < b.Class
			}
			return a.Predictor < b.Predictor
		})
	}
	sortCells(local.Cells)
	sortCells(remote.Cells)
	if !reflect.DeepEqual(local.Cells, remote.Cells) {
		t.Error("remote sensitivity cells differ from in-process cells")
	}
	if !reflect.DeepEqual(local.Perfect, remote.Perfect) {
		t.Error("remote perfect-predictor rows differ from in-process rows")
	}

	// The sweep's queue is smaller than its cell count, so the run
	// exercised backpressure retries; every cell still completed.
	stats := srv.Stats()
	if stats.RunsCompleted == 0 {
		t.Error("server reports no completed runs after a remote sweep")
	}
}
