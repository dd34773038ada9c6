package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// Regression tests for the inventory-coherence fixes in Disk: a blob
// that vanishes or rots under an open store must drop out of the
// in-memory inventory the moment Get discovers it, and an index written
// by an unknown schema version must not be parsed as v1.

func TestDiskGetEvictsVanishedBlob(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Put([]byte("ephemeral"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetRef("study/gone", d); err != nil {
		t.Fatal(err)
	}
	h, _ := parseDigest(d)
	if err := os.Remove(filepath.Join(dir, "blobs", h)); err != nil {
		t.Fatal(err)
	}

	// Before the fix, the failed Get left the stale inventory entry
	// behind: Has stayed true and SetRef happily pointed new names at a
	// blob that could never be served.
	if _, err := s.Get(d); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after file removal: %v, want ErrNotFound", err)
	}
	if s.Has(d) {
		t.Fatal("Has still true after Get discovered the blob vanished")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after eviction, want 0", s.Len())
	}
	if err := s.SetRef("study/new", d); !errors.Is(err, ErrNotFound) {
		t.Fatalf("SetRef at evicted digest: %v, want ErrNotFound", err)
	}
	if _, ok := s.Ref("study/gone"); ok {
		t.Fatal("ref to the vanished blob survived eviction")
	}
}

func TestDiskGetEvictsCorruptBlobAndPutHeals(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	content := []byte("pristine")
	d, err := s.Put(content)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := parseDigest(d)
	if err := os.WriteFile(filepath.Join(dir, "blobs", h), []byte("rotted"), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := s.Get(d); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get of damaged blob: %v, want ErrCorrupt", err)
	}
	if s.Has(d) {
		t.Fatal("Has still true after Get discovered corruption")
	}

	// Self-healing: re-storing the digest rewrites the damaged file and
	// readmits it to the inventory.
	if _, err := s.Put(content); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(d)
	if err != nil {
		t.Fatalf("Get after healing Put: %v", err)
	}
	if string(got) != string(content) {
		t.Fatalf("healed blob reads %q, want %q", got, content)
	}
}

func TestDiskLoadIndexRejectsUnknownVersion(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Put([]byte("survives the schema bump"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetRef("study/v1", d); err != nil {
		t.Fatal(err)
	}

	// Simulate a future build having rewritten the index: same refs
	// key, unknown version. A v1 reader must not trust those refs.
	idx := `{"version":99,"refs":{"study/v1":"` + d + `","study/phantom":"` + d + `"}}`
	if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte(idx), 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatalf("Open over a future-version index: %v", err)
	}
	// The blob scan recovers the content; the foreign refs are dropped.
	if !re.Has(d) {
		t.Fatal("blob lost across the version-mismatch rebuild")
	}
	if refs := re.Refs(); len(refs) != 0 {
		t.Fatalf("refs from a version-99 index were adopted: %v", refs)
	}
	// The rebuilt store persists a clean v1 index it can trust next time.
	if err := re.SetRef("study/v1", d); err != nil {
		t.Fatal(err)
	}
	again, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := again.Ref("study/v1"); !ok || got != d {
		t.Fatalf("rewritten v1 index did not round-trip: %q %v", got, ok)
	}
}

func TestDiskJournalTornTrailingLine(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	d1, _ := s.Put([]byte("survives"))
	d2, _ := s.Put([]byte("also survives"))
	if err := s.SetRef("study/a", d1); err != nil {
		t.Fatal(err)
	}
	if err := s.SetRef("study/b", d2); err != nil {
		t.Fatal(err)
	}

	// Simulate a power loss mid-append: a torn, half-written trailing
	// journal line. Replay must keep every complete entry before it.
	f, err := os.OpenFile(filepath.Join(dir, "refs.jsonl"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"set":{"study/torn":"sha`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := Open(dir)
	if err != nil {
		t.Fatalf("Open over a torn journal: %v", err)
	}
	if got, ok := re.Ref("study/a"); !ok || got != d1 {
		t.Fatalf("complete entry lost to the torn tail: %q %v", got, ok)
	}
	if got, ok := re.Ref("study/b"); !ok || got != d2 {
		t.Fatalf("complete entry lost to the torn tail: %q %v", got, ok)
	}
	if _, ok := re.Ref("study/torn"); ok {
		t.Fatal("torn entry must not be adopted")
	}
	if _, err := os.Stat(filepath.Join(dir, "refs.jsonl")); !os.IsNotExist(err) {
		t.Fatal("Open should compact the journal into a fresh snapshot")
	}
}
