package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"flexsnoop/internal/service"
)

// startDaemon execs a built ringsimd with the given flags and returns
// the process and the base URL parsed from its discovery line.
func startDaemon(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %v: %v", args, err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("no discovery line from daemon %v: %v", args, sc.Err())
	}
	const marker = "listening on "
	line := sc.Text()
	i := strings.Index(line, marker)
	if i < 0 {
		t.Fatalf("unexpected startup line %q", line)
	}
	return cmd, strings.TrimSpace(line[i+len(marker):])
}

// TestRingsimdFederation is the federation acceptance smoke: a
// coordinator fronting one statically-listed worker and one worker that
// joins via -register runs a full `sweep -remote` — and keeps running it
// when the first worker is SIGKILLed mid-sweep. The sweep must complete,
// its stdout must be byte-identical to the serial (in-process) sweep,
// and the coordinator's /statsz must count the failover and report the
// killed worker's breaker open. A sweep given a list of URLs instead of
// one must exit 2. ci.sh runs this as the federation smoke test.
func TestRingsimdFederation(t *testing.T) {
	if testing.Short() {
		t.Skip("federation smoke builds and execs three daemons and the sweep")
	}

	dir := t.TempDir()
	daemon := filepath.Join(dir, "ringsimd")
	sweep := filepath.Join(dir, "sweep")
	for bin, pkg := range map[string]string{daemon: ".", sweep: "flexsnoop/cmd/sweep"} {
		build := exec.Command("go", "build", "-o", bin, pkg)
		build.Env = os.Environ()
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}

	// -remote takes one URL; a list exits 2 and points at a coordinator,
	// the one fan-out.
	var listErr bytes.Buffer
	list := exec.Command(sweep, "-remote", "http://127.0.0.1:1,http://127.0.0.1:2")
	list.Stderr = &listErr
	var exitErr *exec.ExitError
	if err := list.Run(); !errors.As(err, &exitErr) || exitErr.ExitCode() != 2 ||
		!strings.Contains(listErr.String(), "ringsimd -coordinator") {
		t.Errorf("sweep -remote with two URLs: %v, stderr %q; want exit 2 naming ringsimd -coordinator", err, listErr.String())
	}

	// The sweep is sized so it cannot finish before the kill lands: ~13
	// cells across two 2-slot workers, each cell thousands of simulated
	// references.
	sweepArgs := []string{"-ops", "3000", "-apps", "fft", "-seed", "1"}
	var serial bytes.Buffer
	serialCmd := exec.Command(sweep, sweepArgs...)
	serialCmd.Stdout = &serial
	serialCmd.Stderr = os.Stderr
	if err := serialCmd.Run(); err != nil {
		t.Fatalf("serial sweep: %v", err)
	}

	w1Cmd, w1 := startDaemon(t, daemon, "-workers", "2")
	_, coord := startDaemon(t, daemon, "-workers=-1", "-coordinator", "-backends", w1)
	startDaemon(t, daemon, "-workers", "2", "-register", coord, "-heartbeat", "200ms")

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cc := &service.Client{BaseURL: coord}

	// Both backends must be in the registry (the second arrives via
	// -register) before the sweep starts, or the kill could leave a
	// one-worker window with nothing to fail over to.
	for deadline := time.Now().Add(30 * time.Second); ; {
		st, err := cc.Stats(ctx)
		if err == nil && len(st.Backends) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never registered with coordinator: %+v, %v", st.Backends, err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	var fed bytes.Buffer
	fedCmd := exec.Command(sweep, append(sweepArgs, "-remote", coord)...)
	fedCmd.Stdout = &fed
	fedCmd.Stderr = os.Stderr
	if err := fedCmd.Start(); err != nil {
		t.Fatalf("federated sweep: %v", err)
	}
	fedDone := make(chan error, 1)
	go func() { fedDone <- fedCmd.Wait() }()

	// SIGKILL the static worker the moment the coordinator has jobs in
	// flight on it: those jobs must fail over to the registered worker.
	killed := false
kill:
	for deadline := time.Now().Add(60 * time.Second); ; {
		select {
		case err := <-fedDone:
			t.Fatalf("sweep finished before the kill landed (size it up): %v", err)
		default:
		}
		st, err := cc.Stats(ctx)
		if err == nil {
			for _, b := range st.Backends {
				if b.Name == strings.TrimRight(w1, "/") && b.Inflight > 0 {
					if err := w1Cmd.Process.Kill(); err != nil {
						t.Fatalf("kill worker: %v", err)
					}
					killed = true
					break kill
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("coordinator never dispatched to the static worker")
		}
		time.Sleep(5 * time.Millisecond)
	}

	select {
	case err := <-fedDone:
		if err != nil {
			t.Fatalf("federated sweep failed after worker kill: %v\n%s", err, fed.String())
		}
	case <-time.After(120 * time.Second):
		fedCmd.Process.Kill()
		t.Fatal("federated sweep hung after worker kill")
	}

	if !bytes.Equal(serial.Bytes(), fed.Bytes()) {
		t.Errorf("federated sweep output differs from serial sweep:\n-- serial --\n%s\n-- federated --\n%s",
			serial.String(), fed.String())
	}

	st, err := cc.Stats(ctx)
	if err != nil {
		t.Fatalf("statsz after sweep: %v", err)
	}
	if killed && st.Failovers == 0 {
		t.Error("worker SIGKILLed with jobs in flight, but /statsz counts no failovers")
	}
	for _, b := range st.Backends {
		if b.Name != strings.TrimRight(w1, "/") {
			continue
		}
		if b.Healthy {
			t.Error("killed worker still marked healthy in /statsz")
		}
		if b.BreakerState != "open" {
			t.Errorf("killed worker's breaker_state = %q in /statsz, want open", b.BreakerState)
		}
	}
}
