package main

import (
	"bufio"
	"context"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"flexsnoop/internal/service"
)

// TestRingsimdSmoke exercises the built daemon end to end: start on an
// ephemeral loopback port, submit the same job twice (second must be a
// cache hit, with one simulation run visible in /statsz), then SIGTERM
// while a client holds a connection it never used, and require a clean
// drain within the deadline. ci.sh runs this as the service smoke test.
func TestRingsimdSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test builds and execs the daemon")
	}

	bin := filepath.Join(t.TempDir(), "ringsimd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-drain", "20s", "-quiet")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer cmd.Process.Kill()

	// Discover the address from the single stdout line.
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("no stdout line from daemon: %v", sc.Err())
	}
	line := sc.Text()
	const marker = "listening on "
	i := strings.Index(line, marker)
	if i < 0 {
		t.Fatalf("unexpected startup line %q", line)
	}
	base := strings.TrimSpace(line[i+len(marker):])

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c := &service.Client{BaseURL: base}

	spec := service.JobSpec{
		Algorithm: "SupersetAgg",
		Workload:  "fft",
		Options:   service.SpecOptions{OpsPerCore: 300, Seed: 42},
	}

	first, err := c.SubmitWait(ctx, spec)
	if err != nil {
		t.Fatalf("first submission: %v", err)
	}
	if first.State != service.StateDone || first.Cached {
		t.Fatalf("first submission: state=%s cached=%v, want done/uncached", first.State, first.Cached)
	}

	second, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("second submission: %v", err)
	}
	if !second.Cached || second.State != service.StateDone || second.Result == nil {
		t.Fatalf("second submission not a cache hit: %+v", second)
	}
	if second.Result.Cycles != first.Result.Cycles {
		t.Errorf("cached cycles %d != computed cycles %d", second.Result.Cycles, first.Result.Cycles)
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("statsz: %v", err)
	}
	if stats.CacheHits < 1 || stats.RunsCompleted != 1 {
		t.Errorf("statsz: hits=%d runs=%d, want >=1 hit and exactly 1 run",
			stats.CacheHits, stats.RunsCompleted)
	}

	// A connection that never sends a request must not fail the drain.
	idle, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer idle.Close()

	// Graceful drain: SIGTERM must exit 0 within the deadline.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("signal: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain within 30s of SIGTERM")
	}
}
