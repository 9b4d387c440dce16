package main

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"flexsnoop/internal/service"
)

// TestRingsimdChaosKill9 is the crash-durability acceptance smoke: a
// race-built daemon running with -wal and -cachedir is SIGKILLed in the
// middle of a remote sweep and restarted on the same address against the
// same directories. The sweep — whose client retries transient transport
// errors — must ride through the crash and produce output byte-identical
// to the serial (in-process) sweep: no acknowledged job is lost, and
// recovered jobs re-run to the same results. ci.sh runs this as the
// chaos smoke test.
func TestRingsimdChaosKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos smoke builds and execs the daemon twice plus the sweep")
	}

	dir := t.TempDir()
	daemon := filepath.Join(dir, "ringsimd")
	sweep := filepath.Join(dir, "sweep")
	// The daemon is built with the race detector: the crash window and the
	// recovery path both run under it.
	build := exec.Command("go", "build", "-race", "-o", daemon, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build -race: %v\n%s", err, out)
	}
	build = exec.Command("go", "build", "-o", sweep, "flexsnoop/cmd/sweep")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build sweep: %v\n%s", err, out)
	}

	// Serial baseline. Sized like the federation smoke: enough cells and
	// enough work per cell that the kill reliably lands mid-sweep.
	sweepArgs := []string{"-ops", "3000", "-apps", "fft", "-seed", "1"}
	var serial bytes.Buffer
	serialCmd := exec.Command(sweep, sweepArgs...)
	serialCmd.Stdout = &serial
	serialCmd.Stderr = os.Stderr
	if err := serialCmd.Run(); err != nil {
		t.Fatalf("serial sweep: %v", err)
	}

	// The daemon must come back on the SAME address for the sweep's
	// retrying client to reconnect, so reserve a fixed port up front
	// (listen-then-close; Go listeners set SO_REUSEADDR).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("reserve port: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	base := "http://" + addr
	walDir := filepath.Join(dir, "wal")
	cacheDir := filepath.Join(dir, "cache")

	start := func() *exec.Cmd {
		t.Helper()
		cmd := exec.Command(daemon, "-addr", addr, "-workers", "2", "-quiet",
			"-wal", walDir, "-cachedir", cacheDir)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("start daemon: %v", err)
		}
		// Wait for /readyz: the restarted daemon reports ready only after
		// WAL replay has finished.
		for deadline := time.Now().Add(30 * time.Second); ; {
			resp, err := http.Get(base + "/readyz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return cmd
				}
			}
			if time.Now().After(deadline) {
				cmd.Process.Kill()
				t.Fatalf("daemon never became ready on %s: %v", base, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	d1 := start()
	defer func() { d1.Process.Kill(); d1.Wait() }()

	var fed bytes.Buffer
	fedCmd := exec.Command(sweep, append(sweepArgs, "-remote", base)...)
	fedCmd.Stdout = &fed
	fedCmd.Stderr = os.Stderr
	if err := fedCmd.Start(); err != nil {
		t.Fatalf("federated sweep: %v", err)
	}
	fedDone := make(chan error, 1)
	go func() { fedDone <- fedCmd.Wait() }()

	// SIGKILL the daemon once it has made some progress but provably has
	// acknowledged-but-incomplete jobs (busy workers or a backlog).
	ctx, cancel := context.WithTimeout(context.Background(), 240*time.Second)
	defer cancel()
	cc := &service.Client{BaseURL: base}
	for deadline := time.Now().Add(120 * time.Second); ; {
		select {
		case err := <-fedDone:
			t.Fatalf("sweep finished before the kill landed (size it up): %v", err)
		default:
		}
		st, err := cc.Stats(ctx)
		if err == nil && st.RunsCompleted >= 2 && (st.BusyWorkers > 0 || st.QueueDepth > 0) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never reached a mid-sweep state: %+v, %v", st, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := d1.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("kill -9 daemon: %v", err)
	}
	d1.Wait()

	// Restart against the same journal and cache. The sweep's client is
	// mid-retry; the replacement must be up before its budget runs out.
	d2 := start()
	defer func() { d2.Process.Kill(); d2.Wait() }()

	select {
	case err := <-fedDone:
		if err != nil {
			t.Fatalf("sweep failed across the kill -9: %v\n%s", err, fed.String())
		}
	case <-time.After(240 * time.Second):
		fedCmd.Process.Kill()
		t.Fatal("sweep hung across the kill -9")
	}

	if !bytes.Equal(serial.Bytes(), fed.Bytes()) {
		t.Errorf("sweep output across kill -9 differs from serial sweep:\n-- serial --\n%s\n-- crashed+recovered --\n%s",
			serial.String(), fed.String())
	}

	st, err := cc.Stats(ctx)
	if err != nil {
		t.Fatalf("statsz after recovery: %v", err)
	}
	if st.WALReplayed == 0 {
		t.Error("restarted daemon replayed no journal records")
	}
	if st.WALRequeued == 0 {
		t.Error("daemon was killed with incomplete jobs, but none were requeued on restart")
	}
	if st.WALErrors != 0 {
		t.Errorf("WALErrors = %d after recovery, want 0", st.WALErrors)
	}

	// Graceful drain still works after a recovery.
	if err := d2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- d2.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("recovered daemon exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("recovered daemon did not drain within 30s of SIGTERM")
	}
}
