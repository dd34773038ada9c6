package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"cloudhpc/internal/jsonl"
)

// Disk is the on-disk BlobStore. Layout under the root directory:
//
//	blobs/<hex>    one file per blob, named by its sha256
//	refs.jsonl     append-only ref journal, the store's only ref record
//
// Every blob write goes through a temporary file and an atomic rename,
// so readers never observe a partial blob and a crash mid-write leaves
// at worst an orphan temp file. A ref batch appends one journal line, so
// an N-artifact ingest costs O(N) journal bytes. Nothing removes a file
// or rewrites the journal, and Open only reads: it inventories blobs/,
// replays the journal and drops, in memory, every ref whose blob is
// gone. Replay skips a malformed line, and the first append after a
// torn tail starts on a new line, so a torn append loses only its own
// batch. Writes are not fsynced (the store is a cache; recompute covers
// loss), so a power loss can tear a recently-renamed blob — torn content
// is caught by Get's digest verification and healed by the next Put of
// the same digest, and an orphan blob (crash before any ref write) is
// adopted by Open's directory scan: content addressing means an orphan
// is never wrong, only unreferenced.
//
// A Disk store is safe for concurrent use within one process, and
// processes may share one directory: blob writes are idempotent and
// atomic, each journal append is one O_APPEND write, and no process
// removes what another wrote. A process sees the refs another appends
// from its next Open on.
type Disk struct {
	dir string

	mu    sync.Mutex
	blobs map[string]int64  // digest → size
	refs  map[string]string // name → digest
	torn  bool              // the journal may end mid-line; the next append starts a new one
}

// refJournalEntry is one line of refs.jsonl: the refs one SetRef or
// SetRefs call set, applied in order during replay.
type refJournalEntry struct {
	Set map[string]string `json:"set,omitempty"`
}

// Open opens (creating if needed) a disk store rooted at dir. Opening an
// existing store writes nothing.
func Open(dir string) (*Disk, error) {
	if err := os.MkdirAll(filepath.Join(dir, "blobs"), 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	s := &Disk{dir: dir, refs: make(map[string]string)}
	if err := s.scanBlobs(); err != nil {
		return nil, err
	}
	if err := s.replayJournal(); err != nil {
		return nil, err
	}
	for name, d := range s.refs {
		if _, ok := s.blobs[d]; !ok {
			delete(s.refs, name)
		}
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Disk) Dir() string { return s.dir }

func (s *Disk) journalPath() string      { return filepath.Join(s.dir, "refs.jsonl") }
func (s *Disk) blobPath(h string) string { return filepath.Join(s.dir, "blobs", h) }

// scanBlobs inventories the blobs directory, the truth about which
// blobs the store holds: orphan files (a crash between blob rename and
// ref append) are adopted, and temp and foreign files are skipped.
func (s *Disk) scanBlobs() error {
	entries, err := os.ReadDir(filepath.Join(s.dir, "blobs"))
	if err != nil {
		return fmt.Errorf("store: scanning blobs: %w", err)
	}
	s.blobs = make(map[string]int64, len(entries))
	for _, e := range entries {
		if e.IsDir() || strings.HasPrefix(e.Name(), "tmp-") {
			continue
		}
		if _, err := parseDigest("sha256:" + e.Name()); err != nil {
			continue // foreign file; leave it alone
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		s.blobs["sha256:"+e.Name()] = info.Size()
	}
	return nil
}

// replayJournal applies refs.jsonl in order. A malformed line — a torn
// append, or damage — is logged and skipped, and replay goes on with the
// next line; the refs are cache metadata and the recompute path covers
// anything dropped.
func (s *Disk) replayJournal() error {
	data, err := os.ReadFile(s.journalPath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: reading ref journal: %w", err)
	}
	s.torn = len(data) > 0 && data[len(data)-1] != '\n'
	d := jsonl.NewDecoder[refJournalEntry]("store: ref journal", data)
	for {
		e, ok, err := d.Next()
		if err != nil {
			log.Printf("store: %s: %v; skipping the line", s.journalPath(), err)
			continue
		}
		if !ok {
			return nil
		}
		for name, digest := range e.Set {
			s.refs[name] = digest
		}
	}
}

// appendRefsLocked journals one ref batch (already applied to s.refs)
// as a single O_APPEND write. Callers hold s.mu.
func (s *Disk) appendRefsLocked(e refJournalEntry) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	line := append(data, '\n')
	if s.torn {
		line = append([]byte{'\n'}, line...)
	}
	f, err := os.OpenFile(s.journalPath(), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: opening ref journal: %w", err)
	}
	_, werr := f.Write(line)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	// A failed write may have left part of the line behind.
	s.torn = werr != nil
	if werr != nil {
		return fmt.Errorf("store: appending ref journal: %w", werr)
	}
	return nil
}

// atomicWrite writes data to path via a temp file + rename in the same
// directory, so readers never observe a partial file.
func (s *Disk) atomicWrite(path string, data []byte) error {
	tmp, err := createTemp(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("store: temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: writing %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: closing %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: renaming into %s: %w", path, err)
	}
	return nil
}

// createTemp creates a new, uniquely named "tmp-" file in dir. It is
// opened O_EXCL with mode 0o644, the mode refs.jsonl is created with, so
// the umask shapes blobs and the journal alike: a uid that can read a
// store's journal can read its blobs too. (os.CreateTemp creates 0600.)
func createTemp(dir string) (*os.File, error) {
	for try := 0; ; try++ {
		name := filepath.Join(dir, "tmp-"+strconv.FormatUint(rand.Uint64(), 36))
		f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if err == nil || !errors.Is(err, fs.ErrExist) || try == 100 {
			return f, err
		}
	}
}

// Put implements BlobStore. A duplicate Put verifies the existing file
// and rewrites it when the bytes no longer hash to the digest — the
// self-healing path: after a torn write or bit rot, the recompute that
// the corruption forced re-stores pristine content instead of leaving
// the digest permanently poisoned behind the dedup check.
func (s *Disk) Put(data []byte) (string, error) {
	d := DigestOf(data)
	h, _ := parseDigest(d)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.blobs[d]; ok {
		if onDisk, err := os.ReadFile(s.blobPath(h)); err == nil && DigestOf(onDisk) == d {
			return d, nil
		}
		// Damaged or unreadable: fall through and rewrite.
	}
	if err := s.atomicWrite(s.blobPath(h), data); err != nil {
		return "", err
	}
	// No ref write: the blob file itself is the durable record (Open
	// rescans the directory), so Put costs one file write, not two.
	s.blobs[d] = int64(len(data))
	return d, nil
}

// Get implements BlobStore: reads and re-verifies the blob end to end.
// A blob that turns out unservable — the file vanished under us, or its
// bytes no longer hash to the digest — is evicted from the inventory, so
// Has stops answering true and SetRef refuses to point new refs at it.
// Without the eviction a sync manifest would keep advertising content
// this store can never deliver.
func (s *Disk) Get(digest string) ([]byte, error) {
	h, err := parseDigest(digest)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(s.blobPath(h))
	if os.IsNotExist(err) {
		s.evict(digest)
		return nil, fmt.Errorf("%w: %s", ErrNotFound, digest)
	}
	if err != nil {
		return nil, fmt.Errorf("store: reading %s: %w", digest, err)
	}
	if DigestOf(data) != digest {
		// Leave the damaged file for Put's self-healing rewrite, but stop
		// advertising it: a federation peer must see the truthful
		// inventory, and the next Put of this digest restores both.
		s.evict(digest)
		return nil, fmt.Errorf("%w: %s", ErrCorrupt, digest)
	}
	return data, nil
}

// evict drops a digest from the in-memory inventory along with any refs
// pointing at it (as Open drops refs whose blob is gone). Nothing is
// written: eviction is cache coherence, not durable state — the next
// Open's blob scan reaches the same conclusion from the directory
// itself.
func (s *Disk) evict(digest string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.blobs, digest)
	for name, d := range s.refs {
		if d == digest {
			delete(s.refs, name)
		}
	}
}

// Has implements BlobStore.
func (s *Disk) Has(digest string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.blobs[digest]
	return ok
}

// Len implements BlobStore.
func (s *Disk) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.blobs)
}

// Digests implements BlobStore.
func (s *Disk) Digests() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.blobs))
	for d := range s.blobs {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// SetRef implements BlobStore. Re-pointing a ref at the digest it
// already holds — every warm re-push does this — skips the journal
// append entirely, so only genuinely new refs pay a write.
func (s *Disk) SetRef(name, digest string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.blobs[digest]; !ok {
		return fmt.Errorf("%w: ref %q target %s", ErrNotFound, name, digest)
	}
	if s.refs[name] == digest {
		return nil
	}
	s.refs[name] = digest
	return s.appendRefsLocked(refJournalEntry{Set: map[string]string{name: digest}})
}

// SetRefs implements BlobStore: all targets validated up front, all
// refs applied, one journal append (none if nothing changed).
func (s *Disk) SetRefs(refs map[string]string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, digest := range refs {
		if _, ok := s.blobs[digest]; !ok {
			return fmt.Errorf("%w: ref %q target %s", ErrNotFound, name, digest)
		}
	}
	changed := make(map[string]string, len(refs))
	for name, digest := range refs {
		if s.refs[name] != digest {
			s.refs[name] = digest
			changed[name] = digest
		}
	}
	if len(changed) == 0 {
		return nil
	}
	return s.appendRefsLocked(refJournalEntry{Set: changed})
}

// Ref implements BlobStore.
func (s *Disk) Ref(name string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.refs[name]
	return d, ok
}

// Refs implements BlobStore.
func (s *Disk) Refs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sortedKeys(s.refs)
}
