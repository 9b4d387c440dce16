package machine

import (
	"fmt"
	"strings"

	"flexsnoop/internal/protocol"
	"flexsnoop/internal/sim"
	"flexsnoop/internal/telemetry"
)

// This file holds the no-forward-progress watchdog wired in by Run. It
// piggybacks on the kernel's EndCycle hook: it fires after every executed
// cycle's events have drained and schedules no events of its own, so an
// armed-but-quiet watchdog leaves the simulation cycle-identical.

// watchdogDegradeAttempts bounds graceful-degradation rounds before the
// watchdog fails fast anyway: if forcing Eager forwarding twice did not
// restore progress, the stall is not a filtering pathology.
const watchdogDegradeAttempts = 2

// watchdogWindowDeadlines sizes the default watchdog window in units of
// the engine's first-attempt response deadline: generous enough that
// bounded-backoff retransmit storms resolve before the watchdog rules.
const watchdogWindowDeadlines = 32

// watchdogDumpLines caps the transaction-graph dump attached to a
// watchdog failure.
const watchdogDumpLines = 24

// watchdog detects windows with outstanding work but no completions and
// classifies them: advancing squash/retry/timeout churn means livelock
// (transactions cycle without winning); frozen churn means starvation
// (something is stuck and not even retrying).
type watchdog struct {
	eng    *protocol.Engine
	col    *telemetry.Collector
	window sim.Time
	// degrade selects graceful degradation (force Eager forwarding on
	// live lines) before failing fast.
	degrade      bool
	degradeLeft  int
	next         sim.Time
	lastComplete uint64
	lastChurn    uint64
}

// installWatchdog chains the watchdog onto the kernel's EndCycle hook,
// after the engine's transmit flush and the checker.
func installWatchdog(kern *sim.Kernel, eng *protocol.Engine, col *telemetry.Collector, window sim.Time, degrade bool) {
	if window <= 0 {
		window = watchdogWindowDeadlines * eng.TimeoutDeadline()
	}
	w := &watchdog{
		eng: eng, col: col, window: window,
		degrade: degrade, degradeLeft: watchdogDegradeAttempts,
		next: window,
	}
	prev := kern.EndCycle
	kern.EndCycle = func(now sim.Time) {
		if prev != nil {
			prev(now)
		}
		w.tick(now)
	}
}

// tick evaluates one watchdog window. EndCycle can fire repeatedly for
// the same cycle (same-cycle event additions re-run the hook), so the
// window guard comes first.
func (w *watchdog) tick(now sim.Time) {
	if now < w.next {
		return
	}
	w.next = now + w.window
	complete, churn := w.eng.Completions(), w.eng.RetryChurn()
	progressed := complete != w.lastComplete
	churned := churn != w.lastChurn
	w.lastComplete, w.lastChurn = complete, churn
	if progressed {
		w.degradeLeft = watchdogDegradeAttempts
		return
	}
	outstanding, queued := w.eng.OutstandingTxns(), w.eng.QueuedTxns()
	if outstanding == 0 && queued == 0 && !churned {
		// Truly idle. Churn without outstanding work is NOT idle: a
		// livelocked machine can have every transaction parked in a
		// retry-backoff timer at the instant the window closes.
		return
	}
	verdict := "starvation"
	if churned {
		verdict = "livelock"
	}
	if w.degrade && w.degradeLeft > 0 {
		w.degradeLeft--
		n := w.eng.DegradeLiveLines()
		w.col.WatchdogEvent(now, "watchdog-degrade",
			fmt.Sprintf("%s suspected at cycle %d: forced %d lines to Eager forwarding", verdict, now, n))
		return
	}
	dump := w.eng.DebugTxns()
	dump = append(dump, w.eng.DebugRingStates()...)
	if len(dump) > watchdogDumpLines {
		dump = append(dump[:watchdogDumpLines], fmt.Sprintf("... %d more", len(dump)-watchdogDumpLines))
	}
	w.col.WatchdogDump(now, verdict, dump)
	w.eng.Fail(fmt.Errorf(
		"machine: watchdog: %s: no transaction completed in the %d-cycle window ending at cycle %d (outstanding=%d queued=%d churn=%d):\n  %s",
		verdict, w.window, now, outstanding, queued, churn, strings.Join(dump, "\n  ")))
}
