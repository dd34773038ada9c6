package store

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"cloudhpc/internal/jsonl"
)

// Disk is the on-disk BlobStore. Layout under the root directory:
//
//	blobs/<hex>    one file per blob, named by its sha256
//	index.json     ref snapshot (name → digest); blobs inventoried by scan
//	refs.jsonl     append-only ref journal since the snapshot
//
// Every blob and snapshot write goes through a temporary file and an
// atomic rename, so readers never observe a partial file and a crash
// mid-write leaves at worst an orphan temp file. Ref mutations do not
// rewrite the snapshot — they append one journal line, so an N-artifact
// ingest costs O(N) journal bytes instead of the O(N²) it would pay
// rewriting a growing index per push. Open replays the journal over the
// snapshot and compacts (fresh snapshot, journal removed); a torn
// trailing journal line just truncates the replay there. Writes are not
// fsynced (the store is a cache; recompute covers loss), so a power
// loss can tear a recently-renamed blob — torn content is caught by
// Get's digest verification and healed by the next Put of the same
// digest, and an orphan blob (crash before any ref write) is adopted by
// Open's directory rescan: content addressing means an orphan is never
// wrong, only unindexed.
//
// A Disk store is safe for concurrent use within one process. Sharing one
// directory between processes is safe for blobs (idempotent, atomic) but
// not for refs — concurrent journal appends interleave safely (O_APPEND),
// but a second Open compacts and may drop entries the first process
// appends afterwards; the study tooling treats that as acceptable because
// every writer stores the same content under the same keys.
type Disk struct {
	dir string

	mu         sync.Mutex
	blobs      map[string]int64  // digest → size
	refs       map[string]string // name → digest
	journalLen int               // entries appended since the last snapshot
}

// indexFile is the persisted snapshot of the refs. The blob inventory is
// deliberately not persisted — the blobs directory is the truth and Open
// rebuilds the inventory by scanning it — and ref mutations between
// snapshots live in the journal, so neither Put nor SetRefs ever rewrites
// this file on the hot path.
type indexFile struct {
	Version int               `json:"version"`
	Refs    map[string]string `json:"refs"`
}

const indexVersion = 1

// refJournalEntry is one line of refs.jsonl: the refs one SetRef or
// SetRefs call set, applied in order during replay.
type refJournalEntry struct {
	Set map[string]string `json:"set,omitempty"`
}

// journalCompactAt bounds journal growth for long-lived stores (daemons):
// once the journal holds this many entries AND dwarfs the live ref set,
// the next mutation folds it into a fresh snapshot. High enough that a
// full cold study (a few hundred ref batches) never compacts mid-run.
const journalCompactAt = 1024

// Open opens (creating if needed) a disk store rooted at dir.
func Open(dir string) (*Disk, error) {
	if err := os.MkdirAll(filepath.Join(dir, "blobs"), 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	s := &Disk{
		dir:   dir,
		blobs: make(map[string]int64),
		refs:  make(map[string]string),
	}
	replay, err := s.loadIndex()
	if err != nil {
		return nil, err
	}
	if replay {
		s.replayJournal()
	}
	if err := s.reconcile(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Disk) Dir() string { return s.dir }

func (s *Disk) indexPath() string        { return filepath.Join(s.dir, "index.json") }
func (s *Disk) journalPath() string      { return filepath.Join(s.dir, "refs.jsonl") }
func (s *Disk) blobPath(h string) string { return filepath.Join(s.dir, "blobs", h) }

// loadIndex reads the index.json snapshot. A missing or damaged
// snapshot is an empty baseline (the blobs directory scan in reconcile
// recovers any existing content, and the journal — written by this
// schema — is still worth replaying over it). The returned bool says
// whether the journal may be replayed: false only when the snapshot
// carries an unknown version, because then the journal was plausibly
// written by that same future build and cannot be trusted either.
func (s *Disk) loadIndex() (replayJournal bool, err error) {
	data, err := os.ReadFile(s.indexPath())
	if os.IsNotExist(err) {
		return true, nil
	}
	if err != nil {
		return false, fmt.Errorf("store: reading index: %w", err)
	}
	var idx indexFile
	if err := json.Unmarshal(data, &idx); err != nil {
		// A torn or damaged snapshot is recoverable: the blobs are the
		// truth and the journal holds every ref written since the last
		// good snapshot. Rebuild rather than refuse to open.
		return true, nil
	}
	if idx.Version != indexVersion {
		// An index written by an unknown (future) schema must not be
		// parsed as v1 — its refs may mean something else entirely — and
		// neither may the journal that build left behind. Treat both
		// like damaged state: the blob scan recovers the content, the
		// refs are lost, and the format can evolve without corrupting
		// old readers.
		log.Printf("store: %s: index version %d (this build reads v%d); rebuilding refs from the blob scan",
			s.indexPath(), idx.Version, indexVersion)
		return false, nil
	}
	if idx.Refs != nil {
		s.refs = idx.Refs
	}
	return true, nil
}

// reconcile makes the in-memory inventory agree with the blobs directory:
// orphan files (crash between blob rename and index write) are adopted,
// indexed-but-missing blobs are dropped, and refs whose target vanished
// are deleted.
func (s *Disk) reconcile() error {
	entries, err := os.ReadDir(filepath.Join(s.dir, "blobs"))
	if err != nil {
		return fmt.Errorf("store: scanning blobs: %w", err)
	}
	onDisk := make(map[string]int64, len(entries))
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
		onDisk["sha256:"+e.Name()] = info.Size()
	}
	s.blobs = onDisk
	for name, d := range s.refs {
		if _, ok := s.blobs[d]; !ok {
			delete(s.refs, name)
		}
	}
	return s.compactRefsLocked()
}

// replayJournal applies refs.jsonl on top of the snapshot loadIndex
// read. Replay stops at the first malformed line — a torn trailing
// append loses only that entry; the refs are cache metadata and the
// recompute path covers anything dropped.
func (s *Disk) replayJournal() {
	data, err := os.ReadFile(s.journalPath())
	if err != nil {
		return
	}
	d := jsonl.NewDecoder[refJournalEntry]("store: ref journal", data)
	for {
		e, ok, err := d.Next()
		if err != nil {
			log.Printf("store: %s: %v; dropping the journal tail", s.journalPath(), err)
			return
		}
		if !ok {
			return
		}
		for name, digest := range e.Set {
			s.refs[name] = digest
		}
	}
}

// appendRefsLocked journals one ref mutation (already applied to
// s.refs): a single O_APPEND write instead of a whole-snapshot rewrite.
// When the journal has grown far past the live ref set it is folded
// into a fresh snapshot. Callers hold s.mu.
func (s *Disk) appendRefsLocked(e refJournalEntry) error {
	if s.journalLen >= journalCompactAt && s.journalLen >= 4*len(s.refs) {
		return s.compactRefsLocked()
	}
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(s.journalPath(), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: opening ref journal: %w", err)
	}
	_, werr := f.Write(append(data, '\n'))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("store: appending ref journal: %w", werr)
	}
	s.journalLen++
	return nil
}

// compactRefsLocked folds the journal into a fresh snapshot: write
// index.json, then remove refs.jsonl. A crash between the two replays
// already-snapshotted entries on the next Open — harmless, the replay
// is idempotent. Callers hold s.mu (or have exclusive access in Open).
func (s *Disk) compactRefsLocked() error {
	if err := s.persistIndexLocked(); err != nil {
		return err
	}
	if err := os.Remove(s.journalPath()); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: removing ref journal: %w", err)
	}
	s.journalLen = 0
	return nil
}

// persistIndexLocked atomically rewrites index.json. Callers hold s.mu
// (or have exclusive access during Open).
func (s *Disk) persistIndexLocked() error {
	data, err := json.Marshal(indexFile{Version: indexVersion, Refs: s.refs})
	if err != nil {
		return err
	}
	return s.atomicWrite(s.indexPath(), data)
}

// atomicWrite writes data to path via a temp file + rename in the same
// directory, so readers never observe a partial file.
func (s *Disk) atomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "tmp-*")
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
	// No index write: the blob file itself is the durable record (Open
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
// pointing at it (mirroring Open's reconcile). The index file is not
// rewritten: eviction is cache coherence, not durable state — the next
// Open's blob scan and ref reconcile reach the same conclusion from the
// directory itself.
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
