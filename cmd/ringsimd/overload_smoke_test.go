package main

import (
	"bufio"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"flexsnoop/internal/service"
)

// TestRingsimdOverloadSmoke floods a small built daemon well past its
// queue capacity with mixed priorities and deadlines, with the overload
// flags armed: every admitted job must reach a terminal state, the
// daemon must not leak goroutines under the flood, and SIGTERM must
// still drain cleanly afterwards. ci.sh runs this as the overload smoke
// test.
func TestRingsimdOverloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test builds and execs the daemon")
	}

	bin := filepath.Join(t.TempDir(), "ringsimd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-drain", "20s", "-quiet",
		"-workers", "2", "-queue", "8",
		"-sojourn", "50ms", "-ratelimit", "1000")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer cmd.Process.Kill()

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

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	c := &service.Client{BaseURL: base}

	baseline, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("statsz before flood: %v", err)
	}

	// Flood: 8x the queue capacity, mixed priorities and deadlines, no
	// client-side pacing — raw Submit so 429s surface instead of being
	// retried away.
	var admitted []string
	var rejected int
	for i := 0; i < 64; i++ {
		spec := service.JobSpec{
			Algorithm: "Subset",
			Workload:  "fft",
			ClientID:  "overload-smoke",
			Options:   service.SpecOptions{OpsPerCore: 200, Seed: int64(9000 + i), Predictor: "Sub2k"},
		}
		switch i % 3 {
		case 0:
			spec.Priority = 2
		case 2:
			spec.Priority = -1
		}
		if i%4 == 1 {
			spec.DeadlineMS = 1 // doomed by design: must be shed, never mis-served
		}
		st, err := c.Submit(ctx, spec)
		if err != nil {
			rejected++
			if !strings.Contains(err.Error(), "429") && !strings.Contains(err.Error(), "queue full") &&
				!strings.Contains(err.Error(), "rate limit") {
				t.Fatalf("flood submit %d: unexpected error %v", i, err)
			}
			continue
		}
		admitted = append(admitted, st.ID)
	}
	if len(admitted) == 0 {
		t.Fatal("nothing admitted during the flood")
	}

	// Every admitted job settles; expired ones must carry the expiry error.
	var done, failed int
	for _, id := range admitted {
		st, err := c.Wait(ctx, id)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		switch st.State {
		case service.StateDone:
			done++
		case service.StateFailed:
			failed++
			if !strings.Contains(st.Error, "deadline expired") && !strings.Contains(st.Error, "shed") {
				t.Errorf("job %s failed outside the overload contract: %q", id, st.Error)
			}
		default:
			t.Errorf("job %s: terminal state %q", id, st.State)
		}
	}
	t.Logf("flood: %d admitted (%d done, %d shed/expired), %d rejected",
		len(admitted), done, failed, rejected)

	// No goroutine leak: once the flood has settled, the daemon is back
	// to about its idle complement (slack for HTTP keep-alives and the
	// maintenance loop).
	leakDeadline := time.Now().Add(15 * time.Second)
	for {
		stats, err := c.Stats(ctx)
		if err != nil {
			t.Fatalf("statsz after flood: %v", err)
		}
		if stats.Goroutines <= baseline.Goroutines+8 {
			break
		}
		if time.Now().After(leakDeadline) {
			t.Fatalf("goroutines: %d before flood, %d after it settled", baseline.Goroutines, stats.Goroutines)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// SIGTERM still drains cleanly after the flood.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("signal: %v", err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("daemon exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain within 30s of SIGTERM")
	}
}
