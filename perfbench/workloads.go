package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"flexsnoop"
)

// A run sets up once before its timed region, which it then cuts into
// setupPauses parts, setting up setupsPerPause more times after each;
// setup_s is the median of them all. The host's speed shifts within a
// run and from one run to the next, and set-ups spread over the run
// follow that less than set-ups bunched at its start. The pauses are not
// part of the timed region.
const (
	setupPauses    = 8
	setupsPerPause = 2
)

// missClients is how many requests svc-miss keeps in flight, so that the
// daemon's one worker always has the next job queued. svc-hit runs one
// client: with two, its throughput and CPU figures swung by a fifth
// between runs with the host's load.
const missClients = 2

// Daemon GOMAXPROCS per workload. svc-miss needs a second P so that HTTP
// requests are served while the worker simulates. svc-hit simulates
// nothing; with a second P idle, the runtime's search for work on it
// made a quarter of the daemon's CPU per hit and most of its run-to-run
// spread.
const (
	missProcs = 2
	hitProcs  = 1
)

// env is what the phases of one run share.
type env struct {
	ctx     context.Context
	seed    int64
	bin     string // ringsimd binary
	self    string // this executable, for the set-up probes
	work    string // private scratch directory of this run
	rec     recordedDigests
	nextDir int
}

func (e *env) daemonDir() string {
	e.nextDir++
	return filepath.Join(e.work, fmt.Sprintf("d%d", e.nextDir))
}

// e2e is one timed region's end-to-end figures. Every workload repeats
// a fixed list of jobs in rounds: the 29 sim-matrix jobs, the svc-miss
// round's missJobs simulations, the prefilled svc-hit specs. sim-matrix
// takes its timings from each listed job's best repeat; the service
// workloads take theirs over every job (see README.md).
type e2e struct {
	jobs, failed int
	rate         float64         // jobs per second
	best         []time.Duration // per listed job: its lowest latency
	cpuMS        float64         // CPU ms per job
	lat          []time.Duration // every job's latency, for describe
	pctl         []time.Duration // the latencies the percentiles are taken over
	pctlOver     string          // what pctl holds, for describe
	wall         time.Duration   // length of the timed region
	peakMB       float64
	setup        time.Duration
}

// serialRate returns the throughput of jobs run one at a time, given
// each listed job's best latency: that of a round in which every job
// does its best.
func serialRate(best []time.Duration) float64 {
	var sum time.Duration
	n := 0
	for _, b := range best {
		if b > 0 {
			sum += b
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(n) / sum.Seconds()
}

// bestOf records job k's latency d in best, which grows as needed.
func bestOf(best []time.Duration, k int, d time.Duration) []time.Duration {
	for len(best) <= k {
		best = append(best, 0)
	}
	if best[k] == 0 || d < best[k] {
		best[k] = d
	}
	return best
}

func (r e2e) metrics() metrics {
	p50, tail, _ := latencyStats(r.pctl)
	attempted := max(r.jobs, 1)
	m := metrics{}
	m.put("setup_s", r.setup.Seconds(), "s")
	m.put("jobs_per_s", r.rate, "1/s")
	m.put("latency_p50_ms", ms(p50), "ms")
	m.put("latency_tail_ms", ms(tail), "ms")
	m.put("cpu_ms_per_job", r.cpuMS, "ms")
	m.put("peak_rss_mb", r.peakMB, "MB")
	m.put("success_frac", float64(r.jobs-r.failed)/float64(attempted), "1")
	return m
}

// describe says what the figures were taken over, and gives the plain
// median latency beside them.
func (r e2e) describe() string {
	_, _, tailName := latencyStats(r.pctl)
	p50, _, _ := latencyStats(r.lat)
	return fmt.Sprintf("%d jobs in %.1fs (%.4g/s); %d listed jobs, each run about %d times; "+
		"latency percentiles over %d samples (%s), tail is the %s; median latency over all jobs %.4g ms",
		r.jobs, r.wall.Seconds(), float64(r.jobs)/r.wall.Seconds(), len(r.best), r.jobs/max(len(r.best), 1),
		len(r.pctl), r.pctlOver, tailName, ms(p50))
}

// latencyStats returns the median and the tail: the value at the highest
// percentile, at most p99, with at least 10 samples beyond it. Below 21
// samples no such percentile exists and the tail is the maximum.
func latencyStats(lat []time.Duration) (p50, tail time.Duration, name string) {
	n := len(lat)
	if n == 0 {
		return 0, 0, "none"
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	p50 = (s[(n-1)/2] + s[n/2]) / 2
	if n < 21 {
		return p50, s[n-1], "max"
	}
	p := float64(n-10) / float64(n)
	if p > 0.99 {
		p = 0.99
	}
	idx := int(p*float64(n)+0.999999) - 1
	return p50, s[idx], fmt.Sprintf("p%.4g", 100*p)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

type resultOrErr struct {
	res flexsnoop.Result
	err error
}

// ---- sim-matrix -------------------------------------------------------

// simMatrix runs the paper's algorithm matrix in-process, serially, from
// one goroutine.
type simMatrix struct {
	jobs   []simJob
	want   string          // recorded pass digest; empty for an unrecorded seed
	setups []time.Duration // every set-up time measured so far
}

// setupProbe is the body of the child process set-up time is measured
// on: one warm-up Simulate of the first matrix job.
func setupProbe(ctx context.Context, seed int64) error {
	_, err := matrixJobs(seed, matrixOps)[0].simulate(ctx)
	return err
}

func newSimMatrix(e *env) (*simMatrix, error) {
	w := &simMatrix{jobs: matrixJobs(e.seed, matrixOps), want: e.rec.SimMatrix[fmt.Sprint(e.seed)]}
	if err := w.setUp(e, 1); err != nil {
		return nil, err
	}
	// The same warm-up in this process, so the timed region starts warm.
	if _, err := w.jobs[0].simulate(e.ctx); err != nil {
		return nil, err
	}
	return w, nil
}

// setUp times n set-ups, each a child process that runs setupProbe.
func (w *simMatrix) setUp(e *env, n int) error {
	for k := 0; k < n; k++ {
		cmd := exec.Command(e.self, "-setup-probe", "-seed", fmt.Sprint(e.seed))
		cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("set-up probe: %w", err)
		}
		w.setups = append(w.setups, time.Since(t0))
	}
	return nil
}

func (w *simMatrix) setupTimes() []time.Duration { return w.setups }

// timed runs whole passes until they have taken d; each pass's digest
// is checked between passes. With pause non-nil, it calls pause after
// each d/setupPauses of passes.
func (w *simMatrix) timed(e *env, d time.Duration, tr *tracer, pause func() error) (e2e, error) {
	var r e2e
	pid := os.Getpid()
	var bestCPU []time.Duration // per job: its lowest CPU time (this process)
	var sincePause time.Duration
	for pass := 0; r.wall < d; pass++ {
		results := make([]resultOrErr, len(w.jobs))
		passStart := time.Now()
		passSpan := tr.open()
		for k, j := range w.jobs {
			c0, err := procCPU(pid)
			if err != nil {
				return r, err
			}
			t0 := time.Now()
			res, err := j.simulate(e.ctx)
			t1 := time.Now()
			c1, cerr := procCPU(pid)
			if cerr != nil {
				return r, cerr
			}
			results[k] = resultOrErr{res, err}
			r.lat = append(r.lat, t1.Sub(t0))
			r.best = bestOf(r.best, k, t1.Sub(t0))
			bestCPU = bestOf(bestCPU, k, c1-c0)
			tr.add(fmt.Sprintf("sim-matrix/%d/%d", pass, k), passSpan, "flexsnoop.Simulate", t0, t1)
		}
		tr.close(passSpan, fmt.Sprintf("sim-matrix/%d", pass), 0, "sim.pass", passStart, time.Now())
		r.jobs += len(w.jobs)
		got, err := matrixDigest(results)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: sim-matrix:", err)
		}
		if w.want == "" && err == nil {
			w.want = got // unrecorded seed: every pass must repeat the first
		}
		if err != nil || got != w.want {
			r.failed += len(w.jobs)
			fmt.Fprintf(os.Stderr, "perfbench: sim-matrix pass %d digest %s, want %s\n", pass, got, w.want)
		}
		r.wall += time.Since(passStart)
		if sincePause += time.Since(passStart); pause != nil && sincePause >= d/setupPauses {
			sincePause = 0
			if err := pause(); err != nil {
				return r, err
			}
		}
	}
	r.rate = serialRate(r.best)
	// The jobs differ by about 10x in size, so percentiles over every
	// sample would mix size classes: take them over each job's best.
	r.pctl, r.pctlOver = r.best, "each listed job's best"
	// One figure: the CPU of a pass in which every job takes its least.
	var cpu time.Duration
	for _, c := range bestCPU {
		cpu += c
	}
	r.cpuMS = ms(cpu) / float64(len(bestCPU))
	var err error
	r.peakMB, err = peakRSS(pid)
	return r, err
}

// ---- service workloads ------------------------------------------------

// svc is a service workload: svc-miss (hit=false) or svc-hit.
type svc struct {
	hit    bool
	seed   int64
	tag    string // prefix of the job IDs its spans carry
	d      *daemon
	c      *client
	setups []time.Duration // every set-up time measured so far
	hits   []simJob
	specs  [][]byte // svc-hit: wire specs, in round-robin order
	prefil [][]byte // svc-hit: the prefilled results, byte for byte
	next   int      // svc-miss: index of the next job; job i is job i%missJobs of round i/missJobs
}

// newSvc launches the daemon the timed region will load. Set-up ends
// when the daemon is ready and warm: svc-hit has prefilled its specs,
// svc-miss has run one job of its shape.
func newSvc(e *env, hit bool) (*svc, error) {
	w := &svc{hit: hit, seed: e.seed}
	if hit {
		w.hits = hitJobs(e.seed)
		for _, j := range w.hits {
			b, err := json.Marshal(j.spec)
			if err != nil {
				return nil, err
			}
			w.specs = append(w.specs, b)
		}
	}
	d, c, err := w.setUpOnce(e)
	if err != nil {
		return nil, err
	}
	w.d, w.c = d, c
	return w, nil
}

// setUp times n set-ups, stopping each daemon once it is ready.
func (w *svc) setUp(e *env, n int) error {
	for k := 0; k < n; k++ {
		d, _, err := w.setUpOnce(e)
		if err != nil {
			return err
		}
		if err := d.stop(); err != nil {
			return fmt.Errorf("stopping ringsimd: %w", err)
		}
	}
	return nil
}

// setUpOnce launches a daemon and makes it ready and warm, and records
// how long that took.
func (w *svc) setUpOnce(e *env) (*daemon, *client, error) {
	procs := missProcs
	if w.hit {
		procs = hitProcs
	}
	t0 := time.Now()
	d, err := startDaemon(e.bin, e.daemonDir(), procs)
	if err != nil {
		return nil, nil, err
	}
	if w.hit {
		var prefil [][]byte
		if prefil, err = prefill(d.c, w.specs); err == nil && w.prefil == nil {
			w.prefil = prefil // the first daemon's: the one the timed region loads
		}
	} else {
		// Warm up on a job outside the timed list.
		warm := &svc{seed: w.seed, c: d.c}
		err = warm.missOp(-1, missJob(w.seed, missJobs, 0), nil).err
	}
	if err != nil {
		d.stop()
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	w.setups = append(w.setups, time.Since(t0))
	return d, d.c, nil
}

func (w *svc) setupTimes() []time.Duration { return w.setups }

func (w *svc) close() error { return w.d.stop() }

// prefill submits every spec, two at a time, and returns each result.
func prefill(c *client, specs [][]byte) ([][]byte, error) {
	out := make([][]byte, len(specs))
	samples := drive(2, 0, len(specs), func(i int) sample {
		body, _, t, err := c.run(specs[i])
		if err == nil {
			var st jobStatus
			st, err = resultOf(body)
			out[i] = st.Result
		}
		return sample{i: i, t: t, err: err}
	})
	for _, s := range samples {
		if s.err != nil {
			return nil, fmt.Errorf("prefill: %w", s.err)
		}
	}
	return out, nil
}

// sample is one job of a driven phase.
type sample struct {
	i      int
	t      jobTimes
	body   []byte
	cached bool
	bytes  int
	err    error
}

// drive hands out op indices 0, 1, 2, ... to the given number of client
// goroutines until d has elapsed (or, with d zero, until n ops are done)
// and returns the samples in index order. The goroutines carry a pprof
// label so a profile can leave the load generator out.
func drive(clients int, d time.Duration, n int, op func(i int) sample) []sample {
	var next atomic.Int64
	end := time.Now().Add(d)
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go pprof.Do(context.Background(), pprof.Labels("perfbench", "client"), func(context.Context) {
			defer wg.Done()
			for {
				if d > 0 && !time.Now().Before(end) {
					return
				}
				i := int(next.Add(1) - 1)
				if d == 0 && i >= n {
					return
				}
				per[g] = append(per[g], op(i))
			}
		})
	}
	wg.Wait()
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].i < all[b].i })
	return all
}

// timed drives the workload for d and checks every output afterwards.
// Its figures are over every job of the timed region: jobs completed per
// wall second, the daemon's CPU time per job, latency percentiles. With
// pause non-nil, the load stops after each d/setupPauses for pause.
func (w *svc) timed(e *env, d time.Duration, tr *tracer, pause func() error) (e2e, error) {
	r := e2e{pctlOver: "every completed job"}
	pid := w.d.cmd.Process.Pid
	list := missJobs
	if w.hit {
		list = len(w.specs)
	}
	part := d
	if pause != nil {
		part = d / setupPauses
	}
	var samples []sample
	var cpu time.Duration
	for r.wall < d {
		cpu0, err := procCPU(pid)
		if err != nil {
			return r, err
		}
		start := time.Now()
		var got []sample
		if w.hit {
			got = drive(1, min(part, d-r.wall), 0, func(i int) sample { return w.hitOp(i, tr) })
		} else {
			first := w.next
			got = drive(missClients, min(part, d-r.wall), 0, func(i int) sample {
				n := first + i
				return w.missOp(n, missJob(w.seed, n%missJobs, n/missJobs), tr)
			})
		}
		r.wall += time.Since(start)
		cpu1, err := procCPU(pid)
		if err != nil {
			return r, err
		}
		cpu += cpu1 - cpu0
		samples = append(samples, got...)
		w.next += len(got)
		if pause != nil {
			if err := pause(); err != nil {
				return r, err
			}
		}
	}
	var err error
	if r.peakMB, err = peakRSS(pid); err != nil {
		return r, err
	}
	r.jobs = len(samples)
	for _, s := range samples {
		lat := s.t.fetched.Sub(s.t.start)
		r.lat = append(r.lat, lat)
		if s.err != nil {
			r.failed++
			fmt.Fprintln(os.Stderr, "perfbench:", s.err)
			continue
		}
		r.best = bestOf(r.best, s.i%list, lat) // miss samples carry their absolute index
		r.pctl = append(r.pctl, lat)
	}
	r.rate = float64(len(r.pctl)) / r.wall.Seconds()
	r.cpuMS = ms(cpu) / float64(max(r.jobs, 1))
	if w.hit {
		return r, nil
	}
	bad, err := verifyMiss(e.ctx, e.rec, e.seed, samples)
	r.failed += bad
	return r, err
}

// missOp submits svc-miss job j as job i of the run. A cache hit would
// mean the job was not unique, and counts as a failure; the result is
// checked later.
func (w *svc) missOp(i int, j simJob, tr *tracer) sample {
	spec, err := json.Marshal(j.spec)
	if err != nil {
		return sample{i: i, err: err}
	}
	body, cached, t, err := w.c.run(spec)
	if err == nil && cached {
		err = fmt.Errorf("svc-miss job %d was a cache hit", i)
	}
	tr.job(fmt.Sprintf("%smiss/%d", w.tag, i), t)
	return sample{i: i, t: t, body: body, cached: cached, err: err}
}

// hitOp re-submits prefilled spec i mod n; it must be a cache hit that
// returns the prefilled result byte for byte.
func (w *svc) hitOp(i int, tr *tracer) sample {
	k := i % len(w.specs)
	body, cached, t, err := w.c.run(w.specs[k])
	tr.job(fmt.Sprintf("%shit/%d", w.tag, i), t)
	if err == nil {
		var st jobStatus
		if st, err = resultOf(body); err == nil && (!cached || !bytes.Equal(st.Result, w.prefil[k])) {
			err = fmt.Errorf("svc-hit job %d (%s): cached=%v, result differs from the prefill: %v",
				i, w.hits[k].label, cached, !bytes.Equal(st.Result, w.prefil[k]))
		}
	}
	return sample{i: i, t: t, cached: cached, bytes: len(body), err: err}
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}
