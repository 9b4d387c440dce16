package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"flexsnoop"
)

// diskCache is the persistent tier of the result cache: one file per
// fingerprint under dir, written atomically (temp file + rename) with an
// embedded sha256 of the payload. A read whose checksum does not match —
// bit rot, a torn write that somehow survived the rename discipline, or
// an operator truncating files — is treated as a miss and the file is
// deleted: a corrupt result is never served, it is re-simulated (cheap,
// because the simulator is deterministic and the fingerprint is a sound
// content address).
//
// The store is content-addressed and unbounded: entries are only removed
// when they fail verification. Operators cap it by pointing -cachedir at
// a dedicated directory and clearing it at will — any deletion is just a
// future cache miss.
//
// Like the in-memory tier, it is not self-synchronising; the Server's
// mutex guards it.
type diskCache struct {
	dir string

	hits, misses uint64
	corrupt      uint64 // checksum/decode failures detected (and deleted)
}

func newDiskCache(dir string) (*diskCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: result cache dir: %w", err)
	}
	return &diskCache{dir: dir}, nil
}

// path maps a fingerprint ("fsn2:hex...") to its file. The colon is
// replaced so the name is portable.
func (d *diskCache) path(fp string) string {
	return filepath.Join(d.dir, strings.ReplaceAll(fp, ":", "-")+".json")
}

// diskHeader prefixes every cache file: "sha256 <hex>\n" followed by the
// JSON-encoded Result the hash covers.
const diskHeader = "sha256 "

// Get loads and verifies one entry. ok is false on absence, on a
// checksum mismatch, or on undecodable JSON — and in the latter two
// cases the entry is deleted so it can never be served later.
func (d *diskCache) Get(fp string) (flexsnoop.Result, bool) {
	b, err := os.ReadFile(d.path(fp))
	if err != nil {
		d.misses++
		return flexsnoop.Result{}, false
	}
	res, ok := decodeDiskEntry(b)
	if !ok {
		d.corrupt++
		d.misses++
		_ = os.Remove(d.path(fp))
		return flexsnoop.Result{}, false
	}
	d.hits++
	return res, true
}

// decodeDiskEntry verifies and decodes one cache file.
func decodeDiskEntry(b []byte) (flexsnoop.Result, bool) {
	nl := bytes.IndexByte(b, '\n')
	if nl < 0 || !bytes.HasPrefix(b, []byte(diskHeader)) {
		return flexsnoop.Result{}, false
	}
	wantHex := string(b[len(diskHeader):nl])
	payload := b[nl+1:]
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != wantHex {
		return flexsnoop.Result{}, false
	}
	var res flexsnoop.Result
	if json.Unmarshal(payload, &res) != nil {
		return flexsnoop.Result{}, false
	}
	return res, true
}

// Put atomically persists one result: the payload and its hash go to a
// temp file in the same directory, fsynced, then renamed over the final
// name — a reader (or a crash) never observes a half-written entry.
func (d *diskCache) Put(fp string, res flexsnoop.Result) error {
	payload, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("service: encoding cached result: %w", err)
	}
	sum := sha256.Sum256(payload)
	tmp, err := os.CreateTemp(d.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("service: result cache: %w", err)
	}
	_, werr := fmt.Fprintf(tmp, "%s%s\n%s", diskHeader, hex.EncodeToString(sum[:]), payload)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("service: result cache: %w", werr)
	}
	if err := os.Rename(tmp.Name(), d.path(fp)); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("service: result cache: %w", err)
	}
	return nil
}

// Len counts the entries on disk (stats only; O(dir)).
func (d *diskCache) Len() int {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".json") {
			n++
		}
	}
	return n
}
