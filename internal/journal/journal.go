// Package journal is an append-only write-ahead log for the job server:
// the durability substrate that makes ringsimd crash-only. Every job
// state transition (submitted, done, cancelled) is appended —
// and fsynced, under the default policy — before the transition is
// acknowledged to a client, so a SIGKILL at any instant loses nothing
// that was promised. On reopen the log is replayed in order; because the
// simulator is deterministic and results are content-addressed by
// fingerprint, recovery is exactly "re-execute whatever is not already
// in the result cache", with no two-phase commit anywhere.
//
// On-disk format: one record per line, length-prefixed JSONL with a
// per-record CRC32 —
//
//	LLLLLLLL CCCCCCCC {"kind":"submitted",...}\n
//
// where L is the hex length of the JSON payload and C the hex CRC32
// (IEEE) of it. The prefix makes torn tails unambiguous (a record is
// only accepted when exactly L payload bytes and the trailing newline
// are present, and a length that runs past the end of the segment is
// torn without being read), and the CRC rejects bit rot and
// half-written payloads.
// A torn or corrupt tail is truncated on open — never parsed, never
// fatal — which is exactly the crash-recovery contract: the only record
// that can be torn is one whose append was never acknowledged.
//
// Segments rotate at SegmentBytes so no single file grows without
// bound; Compact rewrites the live state into a fresh segment (via an
// invisible .tmp file and an atomic rename) and deletes the old ones.
package journal

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
)

// Record kinds, in lifecycle order.
const (
	// KindSubmitted: a job was admitted. Carries the job ID, its
	// admission sequence, the fingerprint, the priority and admission
	// sequence of the execution it joined (so a replayed queue pops in
	// the original order), and — for the job that created the execution
	// — the raw wire spec to re-execute from.
	KindSubmitted = "submitted"
	// KindDone: an execution finished. With an empty Error the result is
	// in the disk cache under the fingerprint; a non-empty Error records
	// a deterministic simulation failure (re-running would reproduce it).
	KindDone = "done"
	// KindCancelled: one job (by ID) was cancelled.
	KindCancelled = "cancelled"
)

// Record is one journal entry. Fields are omitted when irrelevant to
// the kind. On a submitted record, Priority is the priority of the
// execution the job joined, and ExecSeq is that execution's admission
// sequence; zero means the job's own Seq.
type Record struct {
	Kind        string          `json:"kind"`
	JobID       string          `json:"job,omitempty"`
	Seq         uint64          `json:"seq,omitempty"`
	Fingerprint string          `json:"fp,omitempty"`
	Priority    int             `json:"priority,omitempty"`
	ExecSeq     uint64          `json:"exec_seq,omitempty"`
	Spec        json.RawMessage `json:"spec,omitempty"`
	Error       string          `json:"error,omitempty"`
}

// SyncPolicy says when appends reach stable storage.
type SyncPolicy string

const (
	// SyncAlways fsyncs after every append: an acknowledged record
	// survives power loss. The default.
	SyncAlways SyncPolicy = "always"
	// SyncNone leaves flushing to the OS: an acknowledged record
	// survives a process crash (the write hit the kernel) but not
	// necessarily power loss. Cheaper; fine when the threat model is
	// kill -9, not a yanked cord.
	SyncNone SyncPolicy = "none"
)

// ParseSyncPolicy parses a -walsync flag value.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch SyncPolicy(s) {
	case "", SyncAlways:
		return SyncAlways, nil
	case SyncNone:
		return SyncNone, nil
	}
	return "", fmt.Errorf("journal: unknown sync policy %q (want %q or %q)", s, SyncAlways, SyncNone)
}

// Options configures Open. The zero value of everything but Dir is
// defaulted.
type Options struct {
	// Dir holds the segment files; created if missing.
	Dir string
	// SegmentBytes rotates the active segment beyond this size
	// (default 4 MiB).
	SegmentBytes int64
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
}

const defaultSegmentBytes = 4 << 20

// Journal is an open write-ahead log. It is safe for concurrent use.
type Journal struct {
	mu   sync.Mutex
	opt  Options
	f    *os.File // active segment
	w    *bufio.Writer
	size int64
	seg  int // active segment number

	appended uint64
	dropped  int // torn/corrupt records discarded during Open
}

const (
	segPrefix = "wal-"
	segSuffix = ".log"
)

func segName(n int) string { return fmt.Sprintf("%s%08d%s", segPrefix, n, segSuffix) }

// Open opens (creating if needed) the journal in opt.Dir, replays every
// segment in order, truncates any torn or corrupt tail, and returns the
// surviving records oldest-first. The journal is positioned to append.
func Open(opt Options) (*Journal, []Record, error) {
	if opt.Dir == "" {
		return nil, nil, errors.New("journal: no directory")
	}
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = defaultSegmentBytes
	}
	if opt.Sync == "" {
		opt.Sync = SyncAlways
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	segs, err := listSegments(opt.Dir)
	if err != nil {
		return nil, nil, err
	}

	j := &Journal{opt: opt}
	var records []Record
	for _, n := range segs {
		recs, dropped, err := replaySegment(filepath.Join(opt.Dir, segName(n)))
		if err != nil {
			return nil, nil, err
		}
		records = append(records, recs...)
		j.dropped += dropped
	}

	if len(segs) == 0 {
		if err := j.createSegment(1); err != nil {
			return nil, nil, err
		}
	} else {
		last := segs[len(segs)-1]
		f, err := os.OpenFile(filepath.Join(opt.Dir, segName(last)), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("journal: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: %w", err)
		}
		j.f, j.w, j.size, j.seg = f, bufio.NewWriter(f), st.Size(), last
	}
	return j, records, nil
}

// listSegments returns the segment numbers present in dir, ascending.
// Stray .tmp files (a compaction that died before its rename) are
// removed: they were never part of the durable state.
func listSegments(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var segs []int
	for _, e := range ents {
		name := e.Name()
		if filepath.Ext(name) == ".tmp" {
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		if len(name) != len(segPrefix)+8+len(segSuffix) ||
			name[:len(segPrefix)] != segPrefix || filepath.Ext(name) != segSuffix {
			continue
		}
		n, err := strconv.Atoi(name[len(segPrefix) : len(segPrefix)+8])
		if err != nil || n <= 0 {
			continue
		}
		segs = append(segs, n)
	}
	sort.Ints(segs)
	return segs, nil
}

// prefixLen is the fixed framing ahead of each payload:
// 8 hex length digits, space, 8 hex CRC digits, space.
const prefixLen = 8 + 1 + 8 + 1

// replaySegment reads one segment, truncating it at the first torn or
// corrupt record, and reports how many trailing bytes' worth of records
// were dropped (0 or 1 in practice: only the tail can tear).
func replaySegment(path string) (records []Record, dropped int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, 0, fmt.Errorf("journal: %w", err)
	}

	r := bufio.NewReader(f)
	var good int64 // offset just past the last valid record
	for {
		rec, n, ok := readRecord(r, st.Size()-good)
		if !ok {
			break
		}
		good += int64(n)
		records = append(records, rec)
	}
	if st.Size() > good {
		dropped = 1
		if err := os.Truncate(path, good); err != nil {
			return nil, 0, fmt.Errorf("journal: truncating torn tail of %s: %w", path, err)
		}
	}
	return records, dropped, nil
}

// readRecord decodes one framed record from r, which holds avail more
// bytes of the segment; ok is false on EOF, a torn frame, a CRC
// mismatch, or undecodable JSON (the caller truncates there).
func readRecord(r *bufio.Reader, avail int64) (rec Record, n int, ok bool) {
	prefix := make([]byte, prefixLen)
	if _, err := io.ReadFull(r, prefix); err != nil {
		return rec, 0, false
	}
	if prefix[8] != ' ' || prefix[17] != ' ' {
		return rec, 0, false
	}
	plen, err := strconv.ParseUint(string(prefix[:8]), 16, 32)
	if err != nil {
		return rec, 0, false
	}
	crc, err := strconv.ParseUint(string(prefix[9:17]), 16, 32)
	if err != nil {
		return rec, 0, false
	}
	// Only the payload is under the CRC, so the length is untrusted: one
	// that runs past the segment's end is a torn frame, and must not size
	// an allocation of up to 4 GiB.
	if int64(plen)+1 > avail-prefixLen {
		return rec, 0, false
	}
	payload := make([]byte, plen+1) // +1 for the trailing newline
	if _, err := io.ReadFull(r, payload); err != nil {
		return rec, 0, false
	}
	if payload[plen] != '\n' {
		return rec, 0, false
	}
	payload = payload[:plen]
	if crc32.ChecksumIEEE(payload) != uint32(crc) {
		return rec, 0, false
	}
	if json.Unmarshal(payload, &rec) != nil {
		return rec, 0, false
	}
	return rec, prefixLen + int(plen) + 1, true
}

// Append durably appends one record (fsynced under SyncAlways),
// rotating to a new segment beyond SegmentBytes. An error means the
// record may not be durable: callers must not acknowledge the
// transition it records.
func (j *Journal) Append(rec Record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("journal: closed")
	}
	if j.size >= j.opt.SegmentBytes {
		if err := j.rotateLocked(); err != nil {
			return err
		}
	}
	frame := fmt.Sprintf("%08x %08x %s\n", len(payload), crc32.ChecksumIEEE(payload), payload)
	if _, err := j.w.WriteString(frame); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if j.opt.Sync == SyncAlways {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
	}
	j.size += int64(len(frame))
	j.appended++
	return nil
}

// rotateLocked closes the active segment and opens the next one.
func (j *Journal) rotateLocked() error {
	if err := j.closeSegmentLocked(); err != nil {
		return err
	}
	return j.createSegment(j.seg + 1)
}

func (j *Journal) closeSegmentLocked() error {
	if j.f == nil {
		return nil
	}
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	err := j.f.Close()
	j.f, j.w = nil, nil
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// createSegment opens segment n fresh and fsyncs the directory so the
// new name itself is durable.
func (j *Journal) createSegment(n int) error {
	f, err := os.OpenFile(filepath.Join(j.opt.Dir, segName(n)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.f, j.w, j.size, j.seg = f, bufio.NewWriter(f), 0, n
	return syncDir(j.opt.Dir)
}

// Compact atomically replaces the whole journal with just the live
// records: they are written to a .tmp file, fsynced, renamed into place
// as the next segment, and only then are the old segments deleted. A
// crash at any point leaves either the old segments (rename not yet
// durable) or old+new — which is why replay must be idempotent (it is:
// the server skips records for job IDs it already knows).
func (j *Journal) Compact(live []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("journal: closed")
	}
	oldLow, oldHigh, next := 1, j.seg, j.seg+1
	tmpPath := filepath.Join(j.opt.Dir, segName(next)+".tmp")
	tmp, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	w := bufio.NewWriter(tmp)
	var size int64
	for _, rec := range live {
		payload, err := json.Marshal(rec)
		if err != nil {
			tmp.Close()
			return fmt.Errorf("journal: %w", err)
		}
		n, err := fmt.Fprintf(w, "%08x %08x %s\n", len(payload), crc32.ChecksumIEEE(payload), payload)
		if err != nil {
			tmp.Close()
			return fmt.Errorf("journal: %w", err)
		}
		size += int64(n)
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("journal: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("journal: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := os.Rename(tmpPath, filepath.Join(j.opt.Dir, segName(next))); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := syncDir(j.opt.Dir); err != nil {
		return err
	}

	// The new segment is durable; retire the old ones and append to it.
	if err := j.closeSegmentLocked(); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(j.opt.Dir, segName(next)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.f, j.w, j.size, j.seg = f, bufio.NewWriter(f), size, next
	for n := oldLow; n <= oldHigh; n++ {
		_ = os.Remove(filepath.Join(j.opt.Dir, segName(n)))
	}
	return syncDir(j.opt.Dir)
}

// Appended reports how many records this process has appended.
func (j *Journal) Appended() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appended
}

// Dropped reports how many torn or corrupt tails Open truncated.
func (j *Journal) Dropped() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// Close flushes, fsyncs and closes the active segment.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.closeSegmentLocked()
}

// syncDir fsyncs a directory so metadata operations (create, rename,
// remove) in it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	// Some filesystems refuse directory fsync; that only weakens
	// durability to what SyncNone already promises, so don't fail on it.
	_ = d.Sync()
	return d.Close()
}
