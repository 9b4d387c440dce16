package journal

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func rec(kind, job string, seq uint64) Record {
	return Record{Kind: kind, JobID: job, Seq: seq, Fingerprint: "fsn1:abc"}
}

func openT(t *testing.T, opt Options) (*Journal, []Record) {
	t.Helper()
	j, recs, err := Open(opt)
	if err != nil {
		t.Fatalf("Open(%+v): %v", opt, err)
	}
	return j, recs
}

// TestRoundTrip: appended records come back in order, across reopens.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, recs := openT(t, Options{Dir: dir})
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	want := []Record{
		{Kind: KindSubmitted, JobID: "j-000001", Seq: 1, Fingerprint: "fsn1:aa",
			Priority: 3, Spec: json.RawMessage(`{"algorithm":"Lazy","workload":"fft"}`)},
		rec(KindCancelled, "j-000001", 1),
		{Kind: KindDone, Fingerprint: "fsn1:aa"},
		{Kind: KindCancelled, JobID: "j-000002"},
		{Kind: KindDone, Fingerprint: "fsn1:bb", Error: "simulation failed"},
	}
	for _, r := range want {
		if err := j.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if got := j.Appended(); got != uint64(len(want)) {
		t.Errorf("Appended = %d, want %d", got, len(want))
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2, got := openT(t, Options{Dir: dir})
	defer j2.Close()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replay mismatch:\ngot  %+v\nwant %+v", got, want)
	}
	if j2.Dropped() != 0 {
		t.Errorf("Dropped = %d on a clean journal", j2.Dropped())
	}
}

// TestTornTail: a partial final record (torn frame, torn payload, or
// flipped payload byte) is truncated on open; the records before it
// survive and the journal accepts new appends at the truncation point.
func TestTornTail(t *testing.T) {
	tears := []struct {
		name string
		tear func(t *testing.T, path string)
	}{
		{"partial frame", func(t *testing.T, path string) {
			appendRaw(t, path, "0000")
		}},
		{"partial payload", func(t *testing.T, path string) {
			appendRaw(t, path, "000000ff deadbeef {\"kind\":\"done\"")
		}},
		{"crc mismatch", func(t *testing.T, path string) {
			// Flip one payload byte of the final valid record.
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)-2] ^= 0x20
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range tears {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			j, _ := openT(t, Options{Dir: dir})
			want := []Record{rec(KindSubmitted, "j-000001", 1), rec(KindSubmitted, "j-000002", 2)}
			for _, r := range append(want, rec(KindSubmitted, "j-000003", 3)) {
				if err := j.Append(r); err != nil {
					t.Fatalf("Append: %v", err)
				}
			}
			j.Close()

			// Damage the single segment's tail. The crc case corrupts the
			// last record in place; the torn cases append garbage after it,
			// so record 3 survives there.
			path := filepath.Join(dir, segName(1))
			tc.tear(t, path)

			j2, got := openT(t, Options{Dir: dir})
			if j2.Dropped() != 1 {
				t.Errorf("Dropped = %d, want 1", j2.Dropped())
			}
			if tc.name == "crc mismatch" {
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("replay after tear = %+v, want %+v", got, want)
				}
			} else if len(got) != 3 {
				t.Fatalf("replay after appended garbage = %d records, want 3", len(got))
			}

			// The truncation must leave a valid appendable tail.
			if err := j2.Append(rec(KindDone, "", 0)); err != nil {
				t.Fatalf("Append after truncation: %v", err)
			}
			j2.Close()
			j3, got3 := openT(t, Options{Dir: dir})
			defer j3.Close()
			if got3[len(got3)-1].Kind != KindDone {
				t.Errorf("append after truncation did not survive reopen: %+v", got3)
			}
			if j3.Dropped() != 0 {
				t.Errorf("second open dropped %d records; truncation was not durable", j3.Dropped())
			}
		})
	}
}

// TestHugeLengthPrefixTorn: a final frame whose length prefix runs past
// the end of the segment is torn. Only the payload is under the CRC, so
// Open must drop the frame without sizing a buffer from its length: a
// corrupt prefix must not cost gigabytes at startup.
func TestHugeLengthPrefixTorn(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, Options{Dir: dir})
	want := []Record{rec(KindSubmitted, "j-000001", 1)}
	if err := j.Append(want[0]); err != nil {
		t.Fatalf("Append: %v", err)
	}
	j.Close()
	appendRaw(t, filepath.Join(dir, segName(1)), "7fffffff 00000000 {\"kind\":\"done\"}\n")

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	j2, got := openT(t, Options{Dir: dir})
	runtime.ReadMemStats(&after)
	defer j2.Close()
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("Open allocated %d bytes to drop a corrupt length prefix, want under 1 MiB", alloc)
	}
	if !reflect.DeepEqual(got, want) || j2.Dropped() != 1 {
		t.Errorf("replay = %+v with %d dropped, want %+v with 1 dropped", got, j2.Dropped(), want)
	}
}

// frame encodes one record in the on-disk format, independently of
// Append, so tests can build segments byte by byte.
func frame(r Record) string {
	payload, err := json.Marshal(r)
	if err != nil {
		panic(err)
	}
	return fmt.Sprintf("%08x %08x %s\n", len(payload), crc32.ChecksumIEEE(payload), payload)
}

// FuzzJournalOpen opens arbitrary bytes as a journal segment. Open must
// not panic, and what it keeps must be a clean prefix: after one more
// append, a close and a reopen, the journal holds exactly the first
// Open's records plus the appended one and drops nothing. So a torn or
// corrupt tail never hides a later acknowledged append.
func FuzzJournalOpen(f *testing.F) {
	valid := frame(Record{Kind: KindSubmitted, JobID: "j-000001", Seq: 1, Fingerprint: "fsn2:aa",
		Priority: 2, Spec: json.RawMessage(`{"algorithm":"Lazy","workload":"fft"}`)}) +
		frame(rec(KindDone, "", 1)) + frame(rec(KindCancelled, "j-000002", 2))
	flipped := []byte(valid)
	flipped[len(valid)-len(frame(rec(KindCancelled, "j-000002", 2)))+9] ^= 0x01 // a CRC digit of the last frame
	f.Add([]byte(valid))
	f.Add([]byte(valid + "000000ff deadbeef {\"kind\":\"subm")) // torn tail
	f.Add(flipped)
	f.Add([]byte(valid + "ffffffff 00000000 {}\n")) // huge length prefix
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, seg []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		// No fsync per append: the property is about framing, and the
		// fuzzer explores more inputs without the disk in the loop.
		opt := Options{Dir: dir, Sync: SyncNone}
		j, first, err := Open(opt)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		appended := rec(KindDone, "", 99)
		if err := j.Append(appended); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		j2, got, err := Open(opt)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer j2.Close()
		if want := append(first[:len(first):len(first)], appended); !reflect.DeepEqual(got, want) {
			t.Errorf("reopen = %+v, want the first open's records plus the append: %+v", got, want)
		}
		if j2.Dropped() != 0 {
			t.Errorf("reopen dropped %d records after a clean append", j2.Dropped())
		}
	})
}

func appendRaw(t *testing.T, path, s string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(s); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// TestEmptyAndMissing: an empty directory and an empty segment both
// replay to zero records.
func TestEmptyAndMissing(t *testing.T) {
	dir := t.TempDir()
	j, recs := openT(t, Options{Dir: filepath.Join(dir, "does", "not", "exist", "yet")})
	if len(recs) != 0 {
		t.Errorf("missing dir replayed %d records", len(recs))
	}
	j.Close()

	// Empty existing segment file.
	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, segName(1)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, recs2 := openT(t, Options{Dir: dir2})
	defer j2.Close()
	if len(recs2) != 0 || j2.Dropped() != 0 {
		t.Errorf("empty segment: %d records, %d dropped", len(recs2), j2.Dropped())
	}
}

// TestRotationAndCompaction: appends beyond SegmentBytes rotate into
// new segments; replay spans them in order; Compact collapses
// everything into one fresh segment and removes the rest.
func TestRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, Options{Dir: dir, SegmentBytes: 128}) // tiny: rotate every couple of records
	const n = 50
	for i := 1; i <= n; i++ {
		if err := j.Append(rec(KindSubmitted, "j-"+strings.Repeat("0", 6), uint64(i))); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("only %d segments after %d appends with 128-byte rotation", len(segs), n)
	}
	j.Close()

	j2, recs := openT(t, Options{Dir: dir, SegmentBytes: 128})
	if len(recs) != n {
		t.Fatalf("replayed %d records across segments, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d: segment order lost", i, r.Seq)
		}
	}

	live := recs[n-5:]
	if err := j2.Compact(live); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	segs, err = listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Errorf("%d segments after Compact, want 1", len(segs))
	}
	if err := j2.Append(rec(KindDone, "", 0)); err != nil {
		t.Fatalf("Append after Compact: %v", err)
	}
	j2.Close()

	j3, recs3 := openT(t, Options{Dir: dir})
	defer j3.Close()
	if len(recs3) != len(live)+1 {
		t.Fatalf("replayed %d records after compaction, want %d", len(recs3), len(live)+1)
	}
	if !reflect.DeepEqual(recs3[:len(live)], live) {
		t.Errorf("compacted records mismatch")
	}

	// A stray .tmp (compaction that died pre-rename) is ignored and removed.
	tmp := filepath.Join(dir, segName(99)+".tmp")
	if err := os.WriteFile(tmp, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	j4, recs4 := openT(t, Options{Dir: dir})
	defer j4.Close()
	if len(recs4) != len(recs3) {
		t.Errorf("stray .tmp changed replay: %d vs %d records", len(recs4), len(recs3))
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("stray .tmp not removed on open")
	}
}

// TestSyncPolicyParse covers the flag surface.
func TestSyncPolicyParse(t *testing.T) {
	for s, want := range map[string]SyncPolicy{"": SyncAlways, "always": SyncAlways, "none": SyncNone} {
		got, err := ParseSyncPolicy(s)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %q, %v; want %q", s, got, err, want)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("ParseSyncPolicy accepted an unknown policy")
	}
}
