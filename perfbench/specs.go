package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"

	"flexsnoop"
	"flexsnoop/internal/service"
)

// Job sizes, in memory references per core. They fix how much work one
// job is; a change here changes every figure the benchmark reports.
const (
	// matrixOps sizes one sim-matrix job: a full pass over the 29 jobs
	// takes about half a second on a 2-vCPU host.
	matrixOps = 200
	// missOps sizes one svc-miss job: about 5 ms of simulation, so the
	// service's per-job cost is a visible share of the latency.
	missOps = 16
	// missJobs is how many distinct simulations one svc-miss round
	// submits; a 20-second run repeats each about 45 times.
	missJobs = 64
	// hitOps sizes the svc-hit prefill; only the cached result is read
	// back, so the size only sets the result's simulated values.
	hitOps = 50
)

// matrixApps are the applications of the paper's Figures 6–9 that the
// benchmark sweeps: two SPLASH-2 codes and the two commercial workloads.
var matrixApps = []string{"barnes", "fft", "specjbb", "specweb"}

// missFaults is the fault plan of the repository's fault-injected bench
// row: low drop and delay rates, so every transaction still completes.
const missFaults = "kind=drop,rate=0.02,seed=7;kind=delay,rate=0.05,delay=80,seed=11"

// missCheckEvery arms the continuous coherence checker on svc-miss jobs
// (round r checks every missCheckEvery+r cycles). A job lasts about
// 13,000 cycles, so the checker runs twice in every round.
const missCheckEvery = 5000

// simJob is one simulation the benchmark runs, in-process or remotely.
type simJob struct {
	label string
	job   flexsnoop.Job
	// spec is the wire form; nil for jobs the JobSpec cannot express
	// (the 16-CMP run needs a machine Tweak).
	spec *service.JobSpec
}

// jobSeed derives the seed of job i of a run from the run's seed. Every
// job gets its own seed, so a run's total work averages over many
// independent draws and moves little from one run seed to the next.
func jobSeed(runSeed int64, stride, i int) int64 {
	return runSeed*int64(stride) + int64(i) + 1
}

// matrixJobs returns the sim-matrix job list for a run seed: the 7
// algorithms × matrixApps on the default 8-CMP machine, then the 16-CMP
// barnes run of the scaling study.
func matrixJobs(seed int64, ops uint64) []simJob {
	var jobs []simJob
	for _, alg := range flexsnoop.Algorithms() {
		for _, app := range matrixApps {
			opts := flexsnoop.Options{OpsPerCore: ops, Seed: jobSeed(seed, 1000, len(jobs))}
			jobs = append(jobs, wireJob(alg, app, opts))
		}
	}
	opts := flexsnoop.Options{
		OpsPerCore: ops, Seed: jobSeed(seed, 1000, len(jobs)),
		Tweak: func(m *flexsnoop.MachineConfig) {
			m.NumCMPs = 16
			m.TorusWidth, m.TorusHeight = 4, 4
		},
	}
	jobs = append(jobs, simJob{
		label: "SupersetAgg/barnes/16cmp",
		job:   flexsnoop.Job{Algorithm: flexsnoop.SupersetAgg, Workload: "barnes", Options: opts},
	})
	return jobs
}

// hitJobs returns the svc-hit job list: the expressible sim-matrix jobs
// (all but the 16-CMP run) at the prefill size.
func hitJobs(seed int64) []simJob {
	jobs := matrixJobs(seed, hitOps)
	return jobs[:len(jobs)-1]
}

// missJob returns job k of round r of a svc-miss run: SupersetAgg on
// barnes with faults injected and the checker armed. Job k simulates the
// same machine in every round; the round only moves the checker's
// interval, which makes every submission unique to the service (the
// interval is part of the fingerprint) without changing the simulation
// or its Result.
func missJob(seed int64, k, round int) simJob {
	plan, err := flexsnoop.ParseFaultPlan(missFaults)
	if err != nil {
		panic(err) // a constant plan: only a bug reaches here
	}
	opts := flexsnoop.Options{
		OpsPerCore: missOps, Seed: jobSeed(seed, 1000, k),
		Faults: plan, CheckEvery: missCheckEvery + uint64(round),
	}
	return wireJob(flexsnoop.SupersetAgg, "barnes", opts)
}

func wireJob(alg flexsnoop.Algorithm, app string, opts flexsnoop.Options) simJob {
	spec, err := service.SpecFor(alg, app, opts)
	if err != nil {
		panic(err) // options built above are always expressible
	}
	return simJob{
		label: alg.String() + "/" + app,
		job:   flexsnoop.Job{Algorithm: alg, Workload: app, Options: opts},
		spec:  &spec,
	}
}

func (j simJob) simulate(ctx context.Context) (flexsnoop.Result, error) {
	return flexsnoop.RunJobContext(ctx, j.job)
}

// resultDigest is the SHA-256 of a Result's canonical JSON encoding. A
// result decoded from the service's pretty-printed JSON re-encodes to the
// same bytes as the in-process value, so both sides digest alike.
func resultDigest(res flexsnoop.Result) ([32]byte, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return [32]byte{}, fmt.Errorf("encoding result: %w", err)
	}
	return sha256.Sum256(b), nil
}

// rawResultDigest digests a Result received as JSON.
func rawResultDigest(raw []byte) ([32]byte, error) {
	var res flexsnoop.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return [32]byte{}, fmt.Errorf("decoding result: %w", err)
	}
	return resultDigest(res)
}

// chain folds a sequence of result digests into one running digest; sum
// returns its 16-hex-digit prefix, the form recorded in digests.json.
type chain struct{ h hash.Hash }

func newChain() *chain { return &chain{h: sha256.New()} }

func (c *chain) add(d [32]byte) { c.h.Write(d[:]) }

func (c *chain) sum() string { return hex.EncodeToString(c.h.Sum(nil))[:16] }
