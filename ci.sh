#!/bin/sh
# ci.sh — the repository's tier-1 gate. Every PR must keep this green.
#
#   ./ci.sh        vet + build + full test suite + race-detector passes,
#                  kernel and journal fuzz passes, smokes, then the paired
#                  benchmark gate
#
# The race pass re-runs the library and root tests (including the
# telemetry determinism tests) under -race, catching any data race a
# parallel driver or telemetry probe might introduce. The benchmark gate
# compares the working tree with its parent commit on this host, in the
# same run, so it needs no recorded baseline.
set -eu
cd "$(dirname "$0")"

echo "== gofmt =="
UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt needed on:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== perfbench build =="
# perfbench is its own module, so `go build ./...` never compiles it. Vet
# and build it against the working tree, so a change that breaks the
# benchmark fails here rather than in a benchmark run.
(cd perfbench && go vet . && go build -o /dev/null .)

echo "== go test (shuffled) =="
# -shuffle=on randomises test order within each package, so tests that
# silently depend on a predecessor's side effects fail here rather than
# in a future refactor.
go test -shuffle=on ./...

echo "== go test -race =="
go test -race ./internal/... .

echo "== wheel fuzz =="
# Fuzzes the event kernel against its reference sorted-list scheduler,
# including cancels of events already extracted into the running cycle's
# batch and Stop requeues of a batch holding cancelled entries.
go test -run '^$' -fuzz '^FuzzWheelVsReference$' -fuzztime 15s ./internal/sim

echo "== journal fuzz =="
# Opens arbitrary bytes as a write-ahead journal segment: Open must not
# panic, and after one more append and a reopen the journal must hold
# exactly the first open's records plus the append, dropping nothing.
go test -run '^$' -fuzz '^FuzzJournalOpen$' -fuzztime 10s ./internal/journal

echo "== fault-matrix smoke =="
# Three documented fault plans x two algorithms, each with the in-run
# invariant checker armed at both cadences (every 64 retires, -check,
# and every 5000 cycles): every run must complete with zero violations.
for plan in \
    "kind=drop,rate=0.05,seed=1" \
    "kind=delay,rate=0.1,delay=120,seed=2" \
    "kind=drop,rate=0.03,seed=3;kind=dup,rate=0.03,seed=4;kind=delay,rate=0.05,delay=80,seed=5"; do
    for alg in Lazy SupersetAgg; do
        echo "  $alg faults=\"$plan\""
        go run ./cmd/ringsim -alg "$alg" -workload fft -ops 300 \
            -faults "$plan" -check -checkevery 5000 -json > /dev/null
    done
done

echo "== service smoke =="
# End-to-end daemon check: build ringsimd, serve on loopback, submit the
# same job twice (second must hit the result cache), SIGTERM must drain
# cleanly within the deadline even while a client holds a connection it
# never used. The test execs the built binary.
go test -run TestRingsimdSmoke -count=1 ./cmd/ringsimd

echo "== federation smoke =="
# Coordinator + one static worker + one worker joining via -register;
# the static worker is SIGKILLed mid-sweep. The sweep must complete via
# failover, its output must be byte-identical to the serial sweep, and
# the coordinator's /statsz must report the killed worker's breaker_state
# as "open". A sweep given a list of -remote URLs must exit 2.
go test -run TestRingsimdFederation -count=1 ./cmd/ringsimd

echo "== overload smoke =="
# Overload resilience: flood a 2-worker daemon (sojourn aging and rate
# limiting armed) with 8x its queue capacity in mixed
# priorities and deadlines. Every admitted job must settle inside the
# overload contract (done, expired, or shed — nothing else), the daemon
# must not leak goroutines, and SIGTERM must still drain cleanly.
go test -run TestRingsimdOverloadSmoke -count=1 ./cmd/ringsimd

echo "== chaos smoke =="
# Crash durability: a race-built daemon running with -wal and -cachedir
# is SIGKILLed mid-sweep and restarted on the same address against the
# same directories. The sweep must ride through on client transport
# retries and stay byte-identical to the serial sweep; the restarted
# daemon must replay and requeue from the journal. -race here covers the
# test harness; the daemon itself is built with -race by the test.
go test -race -run TestRingsimdChaosKill9 -count=1 -timeout 10m ./cmd/ringsimd

echo "== bench gate =="
# Builds the parent commit (HEAD if the tree has uncommitted changes,
# else HEAD~1) and the working tree as two test binaries running the same
# BenchmarkGate, and alternates them for 80 ABBA pairs. Fails when a
# sub-benchmark's median head/base time ratio is above 1.05 with its 95%
# confidence interval above 1, or its median allocs/op grew by more than
# 0.1%. Passes, doing nothing, without a git checkout or parent commit.
go run ./cmd/bench

echo "CI OK"
