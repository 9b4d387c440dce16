package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"flexsnoop"
	"flexsnoop/internal/cache"
	"flexsnoop/internal/hotmap"
	"flexsnoop/internal/journal"
	"flexsnoop/internal/ring"
	"flexsnoop/internal/service"
	"flexsnoop/internal/sim"
	"flexsnoop/internal/telemetry"
)

// The traced run's layer probes. Each does a fixed amount of work, the
// same whichever workload the run was started for, so the modelled
// counts repeat exactly for a seed and the timings compare across runs.
const (
	probeMissJobs = 32     // svc-miss-shaped jobs per service probe
	probeHitJobs  = 280    // cache hits per service probe (10 rounds)
	probeMissBase = 900000 // job index of the first probe svc-miss job
	probeBuildRep = 15     // 1-op Simulate calls behind flexsnoop.build_ms
	primBatches   = 5      // batches per primitive; the median is reported
)

// probeCounts tallies the failures of the probes.
type probeCounts struct{ attempted, failed int }

func (c *probeCounts) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		fmt.Fprintf(os.Stderr, "perfbench: probe: "+format+"\n", args...)
	}
}

// layerProbes measures every per-layer metric. The CPU profile covers
// the in-process simulations and one in-process service pass; the
// micro-benchmarks and the daemon probe run after it stops.
func layerProbes(e *env, tr *tracer, profPath string) (metrics, probeCounts, error) {
	m := metrics{}
	var pc probeCounts
	pf, err := os.Create(profPath)
	if err != nil {
		return nil, pc, err
	}
	defer pf.Close()
	// 500 Hz rather than pprof's 100 Hz: the profiled probes last a few
	// seconds. (StartCPUProfile then warns that the rate is already set.)
	runtime.SetCPUProfileRate(500)
	if err := pprof.StartCPUProfile(pf); err != nil {
		return nil, pc, err
	}
	profiling := true
	defer func() {
		if profiling {
			pprof.StopCPUProfile()
		}
	}()
	if err := simProbe(e, tr, m, &pc); err != nil {
		return nil, pc, err
	}
	inproc, inprocMS, err := missShapeProbe(e, tr, m, &pc)
	if err != nil {
		return nil, pc, err
	}
	if err := inProcessService(e, &pc); err != nil {
		return nil, pc, err
	}
	pprof.StopCPUProfile()
	profiling = false
	shares, err := cpuShares(profPath)
	if err != nil {
		return nil, pc, err
	}
	for _, l := range cpuLayers {
		m.put(l+".cpu_share", shares[l], "1")
	}

	fingerprintProbe(e, m)
	primitiveProbes(m)
	if err := journalProbe(e, m); err != nil {
		return nil, pc, err
	}
	if err := daemonProbe(e, tr, m, &pc, inproc, inprocMS); err != nil {
		return nil, pc, err
	}
	return m, pc, nil
}

// simProbe runs one sim-matrix pass for the simulator's time, cycle and
// allocation figures and the modelled counts, then a second pass with the
// telemetry row tap for the event count. Both passes must agree.
func simProbe(e *env, tr *tracer, m metrics, pc *probeCounts) error {
	jobs := matrixJobs(e.seed, matrixOps)
	n := float64(len(jobs))
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	var simTime time.Duration
	var cycles float64
	var st struct{ segs, waits, snoops, retries, lookups, l2miss, memReads float64 }
	first := make([][32]byte, len(jobs))
	for k, j := range jobs {
		t0 := time.Now()
		res, err := j.simulate(e.ctx)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("sim probe %s: %w", j.label, err)
		}
		simTime += t1.Sub(t0)
		tr.add(fmt.Sprintf("probe/sim/%d", k), 0, "flexsnoop.Simulate", t0, t1)
		cycles += float64(res.Cycles)
		s := res.Stats
		st.segs += float64(s.RingSegments)
		st.waits += float64(s.RingLinkWaitCycles)
		st.snoops += float64(s.ReadSnoopOps + s.WriteSnoopOps)
		st.retries += float64(s.Retries)
		st.lookups += float64(s.PredictorLookups)
		st.l2miss += float64(s.L2Misses)
		st.memReads += float64(s.MemReads)
		if first[k], err = resultDigest(res); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&ms1)

	var events uint64
	for k, j := range jobs {
		tapped := j.job
		tapped.Options.Telemetry = &flexsnoop.TelemetryOptions{OnRow: func(r telemetry.Row) { events += r.Events }}
		res, err := flexsnoop.RunJobContext(e.ctx, tapped)
		if err != nil {
			return fmt.Errorf("tapped sim probe %s: %w", j.label, err)
		}
		d, err := resultDigest(res)
		if err != nil {
			return err
		}
		pc.check(d == first[k], "%s: result changed with the telemetry tap on", j.label)
	}

	m.put("flexsnoop.simulate_ms", ms(simTime)/n, "ms")
	m.put("flexsnoop.allocs_per_job", float64(ms1.Mallocs-ms0.Mallocs)/n, "count")
	m.put("flexsnoop.alloc_mb_per_job", float64(ms1.TotalAlloc-ms0.TotalAlloc)/n/(1<<20), "MB")
	m.put("sim.cycles_per_s", cycles/simTime.Seconds(), "1/s")
	m.put("sim.events_per_job", float64(events)/n, "count")
	m.put("sim.ns_per_event", float64(simTime.Nanoseconds())/float64(events), "ns")
	m.put("ring.segments_per_job", st.segs/n, "count")
	m.put("ring.link_wait_cycles_per_job", st.waits/n, "count")
	m.put("protocol.snoop_ops_per_job", st.snoops/n, "count")
	m.put("protocol.retries_per_job", st.retries/n, "count")
	m.put("predictor.lookups_per_job", st.lookups/n, "count")
	m.put("cache.l2_misses_per_job", st.l2miss/n, "count")
	m.put("memory.reads_per_job", st.memReads/n, "count")
	return nil
}

// missShapeProbe simulates in-process the svc-miss-shaped jobs the
// daemon probe submits, for the fault-layer counts and the in-process
// time the service overhead is measured against, and times the 1-op
// job that is the per-job fixed cost. It returns the jobs' digests and
// their median Simulate time in ms.
func missShapeProbe(e *env, tr *tracer, m metrics, pc *probeCounts) ([][32]byte, float64, error) {
	var times []time.Duration
	var injected, timeouts float64
	digs := make([][32]byte, probeMissJobs)
	for i := 0; i < probeMissJobs; i++ {
		j := missJob(e.seed, probeMissBase+i, 0)
		t0 := time.Now()
		res, err := j.simulate(e.ctx)
		t1 := time.Now()
		if err != nil {
			return nil, 0, fmt.Errorf("svc-miss shape probe: %w", err)
		}
		tr.add(fmt.Sprintf("probe/miss/%d", probeMissBase+i), 0, "flexsnoop.Simulate", t0, t1)
		times = append(times, t1.Sub(t0))
		s := res.Stats
		injected += float64(s.FaultDrops + s.FaultDups + s.FaultDelays + s.FaultStalls)
		timeouts += float64(s.SnoopTimeouts)
		if digs[i], err = resultDigest(res); err != nil {
			return nil, 0, err
		}
	}
	m.put("fault.injected_per_job", injected/probeMissJobs, "count")
	m.put("protocol.snoop_timeouts_per_job", timeouts/probeMissJobs, "count")

	var builds []time.Duration
	for i := 0; i < probeBuildRep; i++ {
		one := missJob(e.seed, probeMissBase+i, 0).job
		one.Options.OpsPerCore = 1
		t0 := time.Now()
		_, err := flexsnoop.RunJobContext(e.ctx, one)
		t1 := time.Now()
		pc.check(err == nil, "1-op build probe: %v", err)
		tr.add(fmt.Sprintf("probe/build/%d", i), 0, "flexsnoop.Simulate", t0, t1)
		builds = append(builds, t1.Sub(t0))
	}
	m.put("flexsnoop.build_ms", ms(median(builds)), "ms")
	return digs, ms(median(times)), nil
}

// inProcessService runs the service probe against a service.Server in
// this process, configured like the daemon, so the CPU profile sees the
// service, journal and net/http layers. The load generator's goroutines
// are labelled and left out of the shares.
func inProcessService(e *env, pc *probeCounts) error {
	dir := e.daemonDir()
	defer os.RemoveAll(dir)
	srv, err := service.New(service.Config{
		Workers: 1, WALDir: filepath.Join(dir, "wal"), WALSync: "none",
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	c := newClient("http://" + ln.Addr().String())
	_, err = serviceProbe(e, nil, c, pc)
	c.hc.CloseIdleConnections()
	srv.Drain(time.Minute)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if serr := hs.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// svcProbeResult is what one service probe saw.
type svcProbeResult struct {
	miss, hit []sample
}

// serviceProbe prefills the svc-hit specs, then runs probeMissJobs
// unique svc-miss jobs and probeHitJobs hits, one at a time, so that a
// miss's latency is its own.
func serviceProbe(e *env, tr *tracer, c *client, pc *probeCounts) (*svcProbeResult, error) {
	w := &svc{hit: true, seed: e.seed, tag: "probe/", c: c, hits: hitJobs(e.seed)}
	for _, j := range w.hits {
		b, err := json.Marshal(j.spec)
		if err != nil {
			return nil, err
		}
		w.specs = append(w.specs, b)
	}
	var err error
	if w.prefil, err = prefill(c, w.specs); err != nil {
		return nil, err
	}
	r := &svcProbeResult{}
	r.miss = drive(1, 0, probeMissJobs, func(i int) sample { return w.missOp(i, missJob(e.seed, probeMissBase+i, 0), tr) })
	r.hit = drive(1, 0, probeHitJobs, func(i int) sample { return w.hitOp(i, tr) })
	for _, s := range append(append([]sample(nil), r.miss...), r.hit...) {
		pc.check(s.err == nil, "service probe job %d: %v", s.i, s.err)
	}
	return r, nil
}

// daemonProbe runs the service probe, traced, against a fresh ringsimd
// and reads the service and journal metrics off its spans and /statsz.
func daemonProbe(e *env, tr *tracer, m metrics, pc *probeCounts, inproc [][32]byte, inprocMS float64) error {
	d, err := startDaemon(e.bin, e.daemonDir(), 2)
	if err != nil {
		return err
	}
	c := d.c
	res, err := serviceProbe(e, tr, c, pc)
	var st serverStats
	if err == nil {
		st, err = c.stats()
	}
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	var missLat []time.Duration
	for k, s := range res.miss {
		missLat = append(missLat, s.t.fetched.Sub(s.t.start))
		var d [32]byte
		st, err := resultOf(s.body)
		if err == nil {
			d, err = rawResultDigest(st.Result)
		}
		pc.check(err == nil && d == inproc[k], "daemon svc-miss job %d differs from in-process Simulate (%v)", k, err)
	}
	var resultBytes float64
	for _, s := range res.hit {
		resultBytes += float64(s.bytes)
	}
	m.put("service.submit_ms", ms(median(tr.durations("service.submit", "probe/miss/"))), "ms")
	m.put("service.wait_ms", ms(median(tr.durations("service.wait", "probe/miss/"))), "ms")
	m.put("service.submit_hit_ms", ms(median(tr.durations("service.submit", "probe/hit/"))), "ms")
	m.put("service.fetch_ms", ms(median(tr.durations("service.fetch", "probe/hit/"))), "ms")
	m.put("service.result_bytes", resultBytes/float64(len(res.hit)), "bytes")
	m.put("service.overhead_ms", ms(median(missLat))-inprocMS, "ms")
	m.put("service.cache_hit_ratio", float64(st.CacheHits)/float64(st.CacheHits+st.CacheMisses), "1")
	m.put("journal.records_per_job", float64(st.WALRecords)/float64(st.JobsSubmitted), "count")
	return nil
}

// fingerprintProbe times Job.Fingerprint on the svc-miss job shape.
func fingerprintProbe(e *env, m metrics) {
	j := missJob(e.seed, 0, 0).job
	const calls = 2000
	m.put("flexsnoop.fingerprint_us", batchMedian(calls, func() {
		for i := 0; i < calls; i++ {
			sinkString = j.Fingerprint()
		}
	})/1e3, "us")
}

// journalProbe times journal.Append (sync none) of records the size of
// the service's svc-miss "submitted" records.
func journalProbe(e *env, m metrics) error {
	dir := e.daemonDir()
	defer os.RemoveAll(dir)
	jn, _, err := journal.Open(journal.Options{Dir: dir, Sync: journal.SyncNone})
	if err != nil {
		return err
	}
	j := missJob(e.seed, 0, 0)
	raw, err := json.Marshal(j.spec)
	if err != nil {
		return err
	}
	rec := journal.Record{Kind: journal.KindSubmitted, JobID: "j-000001", Seq: 1,
		Fingerprint: j.job.Fingerprint(), Spec: raw}
	const appends = 400
	var appendErr error
	m.put("journal.append_us", batchMedian(appends, func() {
		for i := 0; i < appends; i++ {
			if err := jn.Append(rec); err != nil {
				appendErr = err
			}
		}
	})/1e3, "us")
	if err := jn.Close(); appendErr == nil {
		appendErr = err
	}
	return appendErr
}

// Sinks keep the compiler from discarding the measured calls.
var (
	sinkString string
	sinkInt    int
)

// primitiveProbes times the primitives the simulator's layers are built
// on, each in its own row, so a regression in one has its own number.
func primitiveProbes(m metrics) {
	// Timing wheel: schedule n events over the next 64 cycles, run them.
	const events = 1 << 14
	noop := func(any) {}
	kern := sim.NewKernel()
	m.put("sim.schedule_ns", batchMedian(events, func() {
		now := kern.Now()
		for i := 0; i < events; i++ {
			kern.ScheduleArg(now+1+sim.Time(i&63), noop, nil)
		}
		kern.RunAll()
	}), "ns")

	// Open-addressed table: lookups of present keys.
	const keys = 4096
	tab := hotmap.New[int](keys)
	for i := 0; i < keys; i++ {
		tab.Put(uint64(i)*0x9E3779B97F4A7C15, i)
	}
	const gets = 1 << 16
	m.put("hotmap.get_ns", batchMedian(gets, func() {
		for i := 0; i < gets; i++ {
			v, _ := tab.Get(uint64(i&(keys-1)) * 0x9E3779B97F4A7C15)
			sinkInt += v
		}
	}), "ns")

	// Tag array: a 512-set, 8-way array, accesses that hit half the time.
	tags := cache.NewTagArray(512, 8)
	for i := 0; i < 512*8; i++ {
		tags.Insert(cache.LineAddr(i))
	}
	const accesses = 1 << 16
	m.put("cache.tag_access_ns", batchMedian(accesses, func() {
		for i := 0; i < accesses; i++ {
			if tags.Access(cache.LineAddr((i * 7919) & (2*512*8 - 1))) {
				sinkInt++
			}
		}
	}), "ns")

	// Ring link arbitration on the default 8-CMP ring.
	rg := ring.NewRing(8, flexsnoop.DefaultMachine().RingLinkCycles, 3)
	msg := &ring.Message{Kind: ring.ReadSnoop}
	const arbs = 1 << 16
	var depart sim.Time
	m.put("ring.arbitrate_ns", batchMedian(arbs, func() {
		for i := 0; i < arbs; i++ {
			depart += 2
			_, arrive := rg.Arbitrate(depart, i&7, msg)
			sinkInt += int(arrive & 1)
		}
	}), "ns")
}

// batchMedian runs body (which performs ops operations) primBatches
// times and returns the median ns per operation.
func batchMedian(ops int, body func()) float64 {
	body() // warm up
	var per []time.Duration
	for b := 0; b < primBatches; b++ {
		t0 := time.Now()
		body()
		per = append(per, time.Since(t0))
	}
	return float64(median(per).Nanoseconds()) / float64(ops)
}
