package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// daemon is one ringsimd process started for a run. It runs one
// simulation worker with the WAL (fsync off) in a private directory, and
// GOMAXPROCS of at most 2, so that with the load generator it fits a
// 2-vCPU host. The disk result cache stays off: it fsyncs every entry it
// writes, whatever -walsync says, and fsync time measures the host's
// disk rather than the program.
type daemon struct {
	cmd     *exec.Cmd
	c       *client
	dir     string
	stdoutC chan struct{} // closed once the daemon's stdout reaches EOF
}

// startDaemon launches ringsimd with the given GOMAXPROCS and returns
// once /readyz answers 200.
func startDaemon(bin, dir string, procs int) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-workers", "1", "-quiet",
		"-wal", filepath.Join(dir, "wal"), "-walsync", "none")
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting ringsimd: %w", err)
	}
	d := &daemon{cmd: cmd, dir: dir, stdoutC: make(chan struct{})}
	lineC := make(chan string, 1)
	go func() {
		defer close(d.stdoutC)
		br := bufio.NewReader(out)
		line, _ := br.ReadString('\n')
		lineC <- line
		_, _ = io.Copy(io.Discard, br)
	}()
	select {
	case line := <-lineC:
		const prefix = "ringsimd listening on "
		if !strings.HasPrefix(line, prefix) {
			d.stop()
			return nil, fmt.Errorf("ringsimd: unexpected first line %q", line)
		}
		d.c = newClient(strings.TrimSpace(strings.TrimPrefix(line, prefix)))
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("ringsimd: no listening line within 30s")
	}
	hc := &http.Client{Timeout: 5 * time.Second}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := hc.Get(d.c.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("ringsimd: not ready within 30s")
		}
		time.Sleep(200 * time.Microsecond)
	}
	return d, nil
}

// stop drains the daemon with SIGTERM (SIGKILL after 20 s), waits for
// it to exit and removes its directory. The client's idle connections
// are closed first: the daemon's HTTP shutdown waits up to 5 s for a
// connection that never sent a request (one the transport dialed and
// then did not need) and exits 1 if it is still open.
func (d *daemon) stop() error {
	if d.c != nil {
		d.c.hc.CloseIdleConnections()
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.stdoutC:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.stdoutC
	}
	err := d.cmd.Wait()
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// procCPU reads the user+system CPU time of a whole process, in
// nanoseconds, from its POSIX CPU clock (the clock ID
// clock_getcpuclockid(3) returns for pid).
func procCPU(pid int) (time.Duration, error) {
	clock := ^int64(pid)<<3 | 2 // CPUCLOCK_SCHED of the thread group
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("CPU clock of process %d: %w", pid, e)
	}
	return time.Duration(ts.Nano()), nil
}

// peakRSS reads a process's peak resident set (VmHWM) in MB.
func peakRSS(pid int) (float64, error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// client speaks the ringsimd job API. One job is submit, then reading
// GET /v1/jobs/{id}/metrics to EOF (the stream closes when the execution
// is final, so nothing waits on a poll interval), then fetching the
// status with the result.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
	}}
}

// jobTimes marks the phases of one job as the client sees them.
type jobTimes struct {
	start, acked, eof, fetched time.Time
}

// jobStatus is the part of the service's JobStatus the benchmark reads.
type jobStatus struct {
	ID     string          `json:"id"`
	State  string          `json:"state"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
	Error  string          `json:"error"`
}

// run submits one job and follows it to its result. It returns the
// fetched status body undecoded, so checking it stays out of the timing.
func (c *client) run(spec []byte) (body []byte, cached bool, t jobTimes, err error) {
	t.start = time.Now()
	resp, err := c.hc.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		return nil, false, t, err
	}
	ack, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, false, t, err
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return nil, false, t, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(ack))
	}
	var st jobStatus
	if err := json.Unmarshal(ack, &st); err != nil {
		return nil, false, t, fmt.Errorf("submit: %w", err)
	}
	t.acked = time.Now()
	if err := c.drain("/v1/jobs/" + st.ID + "/metrics"); err != nil {
		return nil, false, t, err
	}
	t.eof = time.Now()
	body, err = c.get("/v1/jobs/" + st.ID)
	t.fetched = time.Now()
	return body, st.Cached, t, err
}

func (c *client) drain(path string) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return nil
}

func (c *client) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// serverStats is the part of /statsz the benchmark reads.
type serverStats struct {
	JobsSubmitted uint64 `json:"jobs_submitted"`
	CacheHits     uint64 `json:"cache_hits"`
	CacheMisses   uint64 `json:"cache_misses"`
	WALRecords    uint64 `json:"wal_records"`
}

func (c *client) stats() (serverStats, error) {
	var st serverStats
	b, err := c.get("/statsz")
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(b, &st)
}

// resultOf decodes a fetched status and returns its result, failing
// unless the job is done.
func resultOf(body []byte) (jobStatus, error) {
	var st jobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("decoding status: %w", err)
	}
	if st.State != "done" || len(st.Result) == 0 {
		return st, fmt.Errorf("job %s is %s: %s", st.ID, st.State, st.Error)
	}
	return st, nil
}
