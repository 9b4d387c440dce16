package service

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"flexsnoop/internal/journal"
)

// This file is the server side of the write-ahead journal: the append
// helpers that make state transitions durable before they are
// acknowledged, and the replay that reconstructs the server from the
// journal on startup.
//
// The recovery contract leans entirely on determinism and content
// addressing. A "done" record does not carry the result — it promises
// that the result for that fingerprint is either in the disk cache or
// reproducible by re-running the spec, and the two are bit-identical.
// So replay is: restore every journaled job; resolve terminal ones from
// the cache (or re-run them if the cache entry is gone); requeue the
// rest with their original priority and admission sequence, so a
// restarted sweep proceeds in exactly the order the crashed one would
// have.

// walAppendLocked appends one record, or does nothing without a WAL.
// A failed append is counted and logged here. Its error wraps
// ErrDurability: the transition it records was NOT made durable and must
// not be acknowledged.
func (s *Server) walAppendLocked(rec journal.Record) error {
	if s.wal == nil {
		return nil
	}
	if err := s.wal.Append(rec); err != nil {
		s.stats.WALErrors++
		s.logf("wal: append %s (%s): %v", rec.Kind, shortFP(rec.Fingerprint), err)
		return fmt.Errorf("%w: %v", ErrDurability, err)
	}
	return nil
}

// cancelRecord is the journal record of one job's cancellation.
func cancelRecord(j *job) journal.Record {
	return journal.Record{Kind: journal.KindCancelled, JobID: j.id, Seq: j.seq, Fingerprint: j.fp}
}

// journalCancelsLocked journals a cancellation for each job of ex that
// was not already cancelled on its own, when drain or overload ends the
// execution for them. The transition is decided already, so a failed
// append is only counted and logged.
func (s *Server) journalCancelsLocked(ex *execution) {
	for _, j := range ex.jobs {
		if !j.canceled {
			_ = s.walAppendLocked(cancelRecord(j))
		}
	}
}

// walSubmitLocked journals the admission of the job newJobLocked is
// about to mint, carrying the full wire spec so replay can re-execute
// it from scratch.
func (s *Server) walSubmitLocked(spec JobSpec, fp string) error {
	if s.wal == nil {
		return nil
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return fmt.Errorf("%w: encoding spec: %v", ErrDurability, err)
	}
	return s.walAppendLocked(journal.Record{
		Kind: journal.KindSubmitted, JobID: s.nextJobID(), Seq: s.seq + 1,
		Fingerprint: fp, Priority: spec.Priority, Spec: raw,
	})
}

// replayJob is one job reconstructed from the journal scan: its
// submitted record, and whether a cancelled record followed.
type replayJob struct {
	journal.Record
	cancelled bool
}

// replayLocked rebuilds the server's job table and queue from the
// journal records Open returned. It must run with s.mu held, before the
// dispatcher starts. Record kinds it does not read are skipped, such as
// the "started" record older builds appended on every dispatch.
//
// Replay is idempotent by job ID: a crash inside Compact's rename
// window can leave the old segments beside the compacted one, so the
// same record may be read twice — the first occurrence wins. Terminal
// state is tracked per fingerprint, not per record order: determinism
// makes "some execution of this fingerprint completed" a property of
// the fingerprint itself.
func (s *Server) replayLocked(records []journal.Record) error {
	var (
		jobs     []*replayJob
		byID     = make(map[string]*replayJob)
		specByFP = make(map[string]json.RawMessage)
		doneByFP = make(map[string]string) // fp -> error ("" = success)
	)
	var maxSeq uint64
	for i := range records {
		rec := &records[i]
		if rec.Seq > maxSeq {
			maxSeq = rec.Seq
		}
		switch rec.Kind {
		case journal.KindSubmitted:
			if rec.JobID == "" || byID[rec.JobID] != nil {
				continue // malformed, or a compaction-window duplicate
			}
			rj := &replayJob{Record: *rec}
			byID[rec.JobID] = rj
			jobs = append(jobs, rj)
			if len(rec.Spec) > 0 {
				if _, ok := specByFP[rec.Fingerprint]; !ok {
					specByFP[rec.Fingerprint] = rec.Spec
				}
			}
		case journal.KindDone:
			if _, ok := doneByFP[rec.Fingerprint]; !ok {
				doneByFP[rec.Fingerprint] = rec.Error
			}
		case journal.KindCancelled:
			if rj := byID[rec.JobID]; rj != nil {
				rj.cancelled = true
			}
		}
	}

	// Restore each job in admission order. Incomplete jobs sharing a
	// fingerprint re-collapse onto one execution, exactly as their
	// original submissions were deduped.
	for _, rj := range jobs {
		j := &job{id: rj.JobID, seq: rj.Seq, fp: rj.Fingerprint}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		s.stats.WALReplayed++
		msg, done := doneByFP[rj.Fingerprint]
		switch {
		case rj.cancelled:
			j.canceled = true
		case done && msg != "":
			// A journaled deterministic failure: re-running would only
			// reproduce it, so restore the terminal state directly.
			j.err = errors.New(msg)
		case done:
			if res, ok := s.cache.Get(rj.Fingerprint); ok {
				j.cached = true
				j.result = res
				continue
			}
			// Completed, but the result did not survive (no disk cache, or
			// the entry failed verification). Determinism makes re-running
			// exactly equivalent — fall through to requeue.
			fallthrough
		default:
			ex, err := s.requeueReplayedLocked(rj, specByFP[rj.Fingerprint])
			if err != nil {
				j.err = err
				continue
			}
			j.exec = ex
			ex.jobs = append(ex.jobs, j)
			ex.live++
		}
	}
	s.seq = maxSeq
	if s.seq < uint64(len(jobs)) {
		s.seq = uint64(len(jobs))
	}
	s.stats.WALRequeued = uint64(len(s.execs))
	if s.stats.WALReplayed > 0 {
		s.logf("wal: replayed %d jobs (%d executions requeued, %d torn records dropped)",
			s.stats.WALReplayed, s.stats.WALRequeued, s.wal.Dropped())
	}

	// Trim finished jobs beyond retention (newJobLocked was bypassed), so
	// a journal that grew across many restarts does not pin memory.
	s.evictFinishedLocked()

	// Rewrite the journal as exactly the restored state: one submitted
	// record per surviving job plus its terminal record. This bounds
	// journal growth and removes the compaction-window duplicates. Each
	// record keeps its execution's priority and sequence, which thereby
	// outlive the job that created the execution.
	var live []journal.Record
	for _, id := range s.order {
		j, rj := s.jobs[id], byID[id]
		live = append(live, journal.Record{
			Kind: journal.KindSubmitted, JobID: j.id, Seq: j.seq, Fingerprint: j.fp,
			Priority: rj.Priority, ExecSeq: rj.ExecSeq, Spec: specByFP[j.fp],
		})
		switch {
		case j.canceled:
			live = append(live, cancelRecord(j))
		case j.cached:
			live = append(live, journal.Record{Kind: journal.KindDone, Seq: j.seq, Fingerprint: j.fp})
		case j.err != nil:
			live = append(live, journal.Record{
				Kind: journal.KindDone, Seq: j.seq, Fingerprint: j.fp, Error: j.err.Error(),
			})
		}
	}
	return s.wal.Compact(live)
}

// requeueReplayedLocked returns the execution an incomplete replayed job
// joins: the one already requeued for its fingerprint, or a new one built
// from the journaled spec at the priority and sequence the job's record
// gives its execution. The original admission time did not survive the
// crash, so the deadline window restarts at replay: generous to the job,
// and strictly better than resurrecting it pre-expired.
func (s *Server) requeueReplayedLocked(rj *replayJob, raw json.RawMessage) (*execution, error) {
	if ex, ok := s.execs[rj.Fingerprint]; ok {
		return ex, nil
	}
	if len(raw) == 0 {
		return nil, errors.New("service: recovered job lost both its result and its spec")
	}
	var spec JobSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("service: recovered spec undecodable: %w", err)
	}
	fj, err := spec.Job()
	if err != nil {
		return nil, fmt.Errorf("service: recovered spec invalid: %w", err)
	}
	return s.enqueueLocked(spec, fj, rj.Fingerprint, rj.Priority, cmp.Or(rj.ExecSeq, rj.Seq),
		spec.deadlineFrom(time.Now())), nil
}

// evictFinishedLocked applies finishedJobRetention, oldest-first — the
// same policy newJobLocked applies on admission.
func (s *Server) evictFinishedLocked() {
	for len(s.jobs) > finishedJobRetention {
		evicted := false
		for i, id := range s.order {
			old, ok := s.jobs[id]
			if !ok {
				continue
			}
			if terminal(old.statusLocked().State) {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...) // shifts in place, allocating nothing
				evicted = true
				break
			}
		}
		if !evicted {
			break
		}
	}
}
