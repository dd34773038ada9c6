// Package store is the persistent content-addressed blob store under the
// result pipeline: sha256-named blobs written with atomic renames and an
// append-only journal carrying named references. The store is
// append-only: nothing deletes a blob or a ref, and space is reclaimed
// by deleting the directory.
// It is the durable half of the archival discipline the study practiced —
// the paper's release content-addresses 25,541 run datasets in an OCI
// registry — lifted out of process memory so that every cmd/ invocation
// and CI step can share one store instead of recomputing the study.
//
// Two implementations share the BlobStore interface: Disk, the on-disk
// store (one file per blob under <dir>/blobs, a refs.jsonl journal for
// refs),
// and Memory, the in-process store the tests and the default in-memory
// oras registry use. Content addressing makes writes idempotent and reads
// self-verifying: Get re-hashes every blob and returns ErrCorrupt when
// the bytes no longer match their name, which is what lets the cache
// layers above fall back to recompute instead of serving damaged data.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Store errors. Disk and Memory wrap them with context; callers match
// with errors.Is.
var (
	// ErrNotFound reports a digest (or ref target) absent from the store.
	ErrNotFound = errors.New("store: blob not found")
	// ErrCorrupt reports a blob whose bytes no longer hash to its name.
	ErrCorrupt = errors.New("store: blob content does not match digest")
	// ErrBadDigest reports a malformed digest string (wrong scheme or not
	// 64 hex digits — also the guard against path traversal on disk).
	ErrBadDigest = errors.New("store: malformed digest")
)

// DigestOf computes the canonical "sha256:<hex>" content address.
func DigestOf(data []byte) string {
	var d [digestLen]byte
	return string(appendDigest(d[:0], data))
}

// digestLen is the length of a "sha256:<hex>" digest.
const digestLen = len("sha256:") + 2*sha256.Size

func appendDigest(b, data []byte) []byte {
	sum := sha256.Sum256(data)
	return hex.AppendEncode(append(b, "sha256:"...), sum[:])
}

// hasDigest reports whether data hashes to digest: the verify half of
// every read, which builds no digest string.
func hasDigest(data []byte, digest string) bool {
	var d [digestLen]byte
	return string(appendDigest(d[:0], data)) == digest
}

// ValidDigest reports whether d is a well-formed "sha256:<hex>" content
// address — the early guard wire handlers apply before staging any
// payload under the name.
func ValidDigest(d string) bool {
	_, err := parseDigest(d)
	return err == nil
}

// parseDigest validates a digest and returns its hex part.
func parseDigest(d string) (string, error) {
	hexPart, ok := strings.CutPrefix(d, "sha256:")
	if !ok || len(hexPart) != sha256.Size*2 {
		return "", fmt.Errorf("%w: %q", ErrBadDigest, d)
	}
	for _, c := range hexPart {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return "", fmt.Errorf("%w: %q", ErrBadDigest, d)
		}
	}
	return hexPart, nil
}

// BlobStore is the storage contract shared by the on-disk and in-memory
// stores, and the pluggable backend of the oras registry. Blobs are
// immutable and content-addressed; refs are names pointing at digests
// (tags, manifest markers, cache keys) that a later SetRef may re-point
// but nothing removes. Implementations are safe for concurrent use
// within one process.
type BlobStore interface {
	// Put stores data under its content digest and returns the digest.
	// Storing identical content twice deduplicates.
	Put(data []byte) (string, error)
	// Get returns a copy of the blob's bytes, verifying the content
	// against the digest (ErrCorrupt on mismatch, ErrNotFound if absent).
	Get(digest string) ([]byte, error)
	// Has reports whether the digest is present.
	Has(digest string) bool
	// Len reports the number of stored blobs.
	Len() int
	// Digests returns every stored blob digest, sorted — the inventory
	// half of a sync manifest (see TakeInventory).
	Digests() []string
	// SetRef points name at an existing digest (ErrNotFound otherwise).
	SetRef(name, digest string) error
	// SetRefs points several names at existing digests with at most one
	// index persist — the batch form composite pushes use so an
	// N-artifact ingest writes the index N times, not 2N. All targets
	// are validated before any ref moves.
	SetRefs(refs map[string]string) error
	// Ref resolves a name to its digest.
	Ref(name string) (string, bool)
	// Refs returns all ref names, sorted.
	Refs() []string
}

// Memory is the in-process BlobStore: the test backend, and the default
// backend of an oras registry. The zero value is not usable; call
// NewMemory.
type Memory struct {
	mu    sync.Mutex
	blobs map[string][]byte
	refs  map[string]string
}

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory {
	return &Memory{blobs: make(map[string][]byte), refs: make(map[string]string)}
}

// Put implements BlobStore. Like Disk.Put it self-heals: re-storing a
// digest whose held bytes were damaged (the Corrupt test hook) replaces
// them with the pristine content.
func (m *Memory) Put(data []byte) (string, error) {
	d := DigestOf(data)
	m.mu.Lock()
	defer m.mu.Unlock()
	if held, ok := m.blobs[d]; !ok || !hasDigest(held, d) {
		cp := make([]byte, len(data))
		copy(cp, data)
		m.blobs[d] = cp
	}
	return d, nil
}

// Get implements BlobStore. Memory verifies content like Disk does, so a
// test that reaches in and damages a blob observes the same ErrCorrupt
// path production would.
func (m *Memory) Get(digest string) ([]byte, error) {
	if _, err := parseDigest(digest); err != nil {
		return nil, err
	}
	m.mu.Lock()
	data, ok := m.blobs[digest]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, digest)
	}
	if !hasDigest(data, digest) {
		return nil, fmt.Errorf("%w: %s", ErrCorrupt, digest)
	}
	out := make([]byte, len(data))
	copy(out, data)
	return out, nil
}

// Has implements BlobStore.
func (m *Memory) Has(digest string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.blobs[digest]
	return ok
}

// Len implements BlobStore.
func (m *Memory) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.blobs)
}

// Digests implements BlobStore.
func (m *Memory) Digests() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.blobs))
	for d := range m.blobs {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// SetRef implements BlobStore.
func (m *Memory) SetRef(name, digest string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.blobs[digest]; !ok {
		return fmt.Errorf("%w: ref %q target %s", ErrNotFound, name, digest)
	}
	m.refs[name] = digest
	return nil
}

// SetRefs implements BlobStore.
func (m *Memory) SetRefs(refs map[string]string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, digest := range refs {
		if _, ok := m.blobs[digest]; !ok {
			return fmt.Errorf("%w: ref %q target %s", ErrNotFound, name, digest)
		}
	}
	for name, digest := range refs {
		m.refs[name] = digest
	}
	return nil
}

// Ref implements BlobStore.
func (m *Memory) Ref(name string) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.refs[name]
	return d, ok
}

// Refs implements BlobStore.
func (m *Memory) Refs() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return sortedKeys(m.refs)
}

// Corrupt overwrites a stored blob's bytes without renaming it — a test
// hook for exercising the ErrCorrupt fallback paths. It reports whether
// the digest was present.
func (m *Memory) Corrupt(digest string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.blobs[digest]; !ok {
		return false
	}
	m.blobs[digest] = []byte("corrupted")
	return true
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
