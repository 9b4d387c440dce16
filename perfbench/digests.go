package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
)

// digests.json holds the result digests recorded for the first seeds
// (regenerate with -record-digests after a change that is meant to alter
// simulated results):
//
//	sim_matrix: seed → chain digest of one sim-matrix pass
//	svc_miss:   seed → chain digest of the missJobs svc-miss simulations
//
//go:embed digests.json
var digestsJSON []byte

type recordedDigests struct {
	SimMatrix map[string]string `json:"sim_matrix"`
	SvcMiss   map[string]string `json:"svc_miss"`
}

func loadDigests() (recordedDigests, error) {
	var rec recordedDigests
	if err := json.Unmarshal(digestsJSON, &rec); err != nil {
		return rec, fmt.Errorf("digests.json: %w", err)
	}
	return rec, nil
}

// matrixDigest returns the chain digest of one sim-matrix pass.
func matrixDigest(results []resultOrErr) (string, error) {
	c := newChain()
	for _, r := range results {
		if r.err != nil {
			return "", r.err
		}
		d, err := resultDigest(r.res)
		if err != nil {
			return "", err
		}
		c.add(d)
	}
	return c.sum(), nil
}

// missDigests simulates the missJobs svc-miss jobs of a seed in-process
// and returns each Result's digest and their chain digest.
func missDigests(ctx context.Context, seed int64) ([][32]byte, string, error) {
	digs := make([][32]byte, missJobs)
	c := newChain()
	for k := range digs {
		res, err := missJob(seed, k, 0).simulate(ctx)
		if err != nil {
			return nil, "", fmt.Errorf("in-process svc-miss job %d: %w", k, err)
		}
		if digs[k], err = resultDigest(res); err != nil {
			return nil, "", err
		}
		c.add(digs[k])
	}
	return digs, c.sum(), nil
}

// verifyMiss checks the results the daemon returned for svc-miss jobs:
// each must equal an in-process Simulate of the same job, whose digests
// must in turn match the ones recorded for the seed, if any. It returns
// how many jobs failed.
func verifyMiss(ctx context.Context, rec recordedDigests, seed int64, samples []sample) (bad int, err error) {
	want, sum, err := missDigests(ctx, seed)
	if err != nil {
		return 0, err
	}
	if r, ok := rec.SvcMiss[strconv.FormatInt(seed, 10)]; ok && r != sum {
		fmt.Fprintf(os.Stderr, "perfbench: svc-miss seed %d: in-process digest %s, recorded %s\n", seed, sum, r)
		return len(samples), nil
	}
	for _, s := range samples {
		if s.err != nil {
			continue // counted as failed already
		}
		st, err := resultOf(s.body)
		var d [32]byte
		if err == nil {
			d, err = rawResultDigest(st.Result)
		}
		if err != nil || d != want[s.i%missJobs] {
			bad++
			fmt.Fprintf(os.Stderr, "perfbench: svc-miss job %d differs from in-process Simulate (%v)\n", s.i, err)
		}
	}
	return bad, nil
}

// recordDigests simulates seeds 1..seeds in-process (two at a time) and
// writes digests.json to w.
func recordDigests(ctx context.Context, seeds int, w io.Writer) error {
	rec := recordedDigests{SimMatrix: map[string]string{}, SvcMiss: map[string]string{}}
	var mu sync.Mutex
	var firstErr error
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for s := 1; s <= seeds; s++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(seed int64) {
			defer func() { <-sem; wg.Done() }()
			m, miss, err := recordSeed(ctx, seed)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			key := strconv.FormatInt(seed, 10)
			rec.SimMatrix[key] = m
			rec.SvcMiss[key] = miss
		}(int64(s))
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

func recordSeed(ctx context.Context, seed int64) (matrix, miss string, err error) {
	var pass []resultOrErr
	for _, j := range matrixJobs(seed, matrixOps) {
		res, err := j.simulate(ctx)
		pass = append(pass, resultOrErr{res, err})
	}
	if matrix, err = matrixDigest(pass); err != nil {
		return "", "", fmt.Errorf("seed %d: sim-matrix: %w", seed, err)
	}
	if _, miss, err = missDigests(ctx, seed); err != nil {
		return "", "", fmt.Errorf("seed %d: %w", seed, err)
	}
	return matrix, miss, nil
}
