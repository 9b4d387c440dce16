package service

import (
	"context"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flexsnoop"
)

// flakyProxy is a TCP proxy that abuses the connections through it:
// every killNth connection is torn down mid-response (the client sees a
// truncated reply — the nastiest transient: the request may or may not
// have been applied), and every forwarded chunk is delayed. It stands
// between the coordinator and a worker to prove the federation survives
// a hostile network.
type flakyProxy struct {
	ln      net.Listener
	target  string
	killNth int64
	delay   time.Duration

	conns  atomic.Int64
	killed atomic.Int64
	wg     sync.WaitGroup
	closed chan struct{}

	mu     sync.Mutex
	active map[net.Conn]struct{}
}

func newFlakyProxy(t *testing.T, target string, killNth int64, delay time.Duration) *flakyProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("proxy listen: %v", err)
	}
	p := &flakyProxy{
		ln: ln, target: target, killNth: killNth, delay: delay,
		closed: make(chan struct{}), active: make(map[net.Conn]struct{}),
	}
	p.wg.Add(1)
	go p.accept()
	t.Cleanup(p.Close)
	return p
}

func (p *flakyProxy) URL() string { return "http://" + p.ln.Addr().String() }

func (p *flakyProxy) Close() {
	select {
	case <-p.closed:
		return
	default:
	}
	close(p.closed)
	p.ln.Close()
	// Idle keep-alive connections block their pipe goroutines in Read
	// forever; tear them down so Close terminates.
	p.mu.Lock()
	for c := range p.active {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *flakyProxy) track(c net.Conn) {
	p.mu.Lock()
	p.active[c] = struct{}{}
	p.mu.Unlock()
}

func (p *flakyProxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.active, c)
	p.mu.Unlock()
	c.Close()
}

func (p *flakyProxy) accept() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		n := p.conns.Add(1)
		p.wg.Add(1)
		go p.pipe(c, n%p.killNth == 0)
	}
}

// pipe forwards one connection with per-chunk latency. A doomed
// connection forwards the request intact but truncates the first
// response chunk and then resets — the worker has acted on the request,
// the coordinator never learns the outcome.
func (p *flakyProxy) pipe(client net.Conn, doomed bool) {
	defer p.wg.Done()
	p.track(client)
	defer p.untrack(client)
	server, err := net.Dial("tcp", p.target)
	if err != nil {
		return
	}
	p.track(server)
	defer p.untrack(server)

	copyDir := func(dst, src net.Conn, truncate bool) {
		buf := make([]byte, 4096)
		for {
			n, err := src.Read(buf)
			if n > 0 {
				select {
				case <-time.After(p.delay):
				case <-p.closed:
					return
				}
				if truncate {
					p.killed.Add(1)
					dst.Write(buf[:n/2])
					client.Close()
					server.Close()
					return
				}
				if _, err := dst.Write(buf[:n]); err != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	}
	done := make(chan struct{})
	go func() { copyDir(server, client, false); close(done) }() // request path
	copyDir(client, server, doomed)                             // response path
	client.Close()
	server.Close()
	<-done
}

// TestFederationThroughFlakyProxy: a coordinator dispatching to a worker
// through a proxy that injects latency and resets still completes every
// job with bit-identical results. The coordinator's failover requeues
// jobs killed mid-flight (transport errors surface immediately:
// per-backend clients run with retries disabled) and the local pool
// absorbs what the flaky path drops, so progress is guaranteed.
func TestFederationThroughFlakyProxy(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos proxy run takes a few seconds")
	}
	specs := make([]JobSpec, 8)
	want := make([]flexsnoop.Result, len(specs))
	for i := range specs {
		specs[i] = smallSpec(int64(100 + i))
		fj, err := specs[i].Job()
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		want[i], err = flexsnoop.RunJobContext(context.Background(), fj)
		if err != nil {
			t.Fatalf("baseline %d: %v", i, err)
		}
	}

	_, workerURL := newWorker(t, 2)
	proxy := newFlakyProxy(t, workerURL[len("http://"):], 3, time.Millisecond)

	cfg := Config{
		Workers:         1, // the guaranteed-progress fallback
		Backends:        []string{proxy.URL()},
		HealthInterval:  25 * time.Millisecond,
		DispatchRetries: 8,
	}
	coord := mustNew(t, cfg)
	defer coord.Close()

	ids := make([]string, len(specs))
	for i, spec := range specs {
		st, err := coord.Submit(spec)
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		ids[i] = st.ID
	}
	for i, id := range ids {
		st := waitState(t, coord, id, StateDone)
		if !reflect.DeepEqual(*st.Result, want[i]) {
			t.Errorf("job %d: result through flaky proxy is not bit-identical", i)
		}
	}
	t.Logf("proxy: %d connections, %d killed; coordinator failovers: %d",
		proxy.conns.Load(), proxy.killed.Load(), coord.Stats().Failovers)
}
