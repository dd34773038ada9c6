package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// Regression tests for the inventory-coherence fixes in Disk: a blob
// that vanishes or rots under an open store must drop out of the
// in-memory inventory the moment Get discovers it. Then the ref
// journal's contract: Open only reads, and a torn append loses only its
// own batch.

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

	// The torn tail stays in the journal, so the next append must start
	// on a line of its own to survive a reopen.
	d3, _ := re.Put([]byte("appended after the tear"))
	if err := re.SetRef("study/c", d3); err != nil {
		t.Fatal(err)
	}
	again, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{"study/a": d1, "study/b": d2, "study/c": d3} {
		if got, ok := again.Ref(name); !ok || got != want {
			t.Fatalf("%s after an append past the torn tail: %q %v, want %s", name, got, ok, want)
		}
	}
}

// TestDiskJournalEveryTornAppend cuts the journal at every byte offset
// inside its last lines — every point where a crash can tear an append —
// and reopens the store. Exactly the batches whose whole line precedes
// the cut are applied, and one more batch appended after the cut
// survives the next reopen.
func TestDiskJournalEveryTornAppend(t *testing.T) {
	t.Parallel()
	const batches, tornLines = 8, 3
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Two refs per batch, both at the manifest, as oras.Registry.Push
	// writes them: the manifest marker and the tag.
	written := make([]map[string]string, batches)
	for i := range written {
		d, err := s.Put([]byte(fmt.Sprintf("manifest %d", i)))
		if err != nil {
			t.Fatal(err)
		}
		written[i] = map[string]string{"oras/manifest/" + d: d, fmt.Sprintf("oras/tag/unit/%d", i): d}
		if err := s.SetRefs(written[i]); err != nil {
			t.Fatal(err)
		}
	}
	extra, err := s.Put([]byte("appended after the cut"))
	if err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(dir, "refs.jsonl")
	full, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	// lineEnd[i] is the offset of batch i's newline: a cut at or past it
	// keeps the batch's whole JSON object.
	var lineEnd []int
	for i, c := range full {
		if c == '\n' {
			lineEnd = append(lineEnd, i)
		}
	}
	if len(lineEnd) != batches {
		t.Fatalf("journal has %d lines, want one per batch (%d)", len(lineEnd), batches)
	}

	check := func(s *Disk, cut int, extraSet bool) {
		t.Helper()
		want := 0
		for i, batch := range written {
			applied := cut >= lineEnd[i]
			for name, d := range batch {
				got, ok := s.Ref(name)
				if applied && (!ok || got != d) || !applied && ok {
					t.Fatalf("cut at %d: batch %d ref %s = %q %v, want applied=%v", cut, i, name, got, ok, applied)
				}
			}
			if applied {
				want += len(batch)
			}
		}
		if extraSet {
			if got, ok := s.Ref("oras/tag/extra"); !ok || got != extra {
				t.Fatalf("cut at %d: batch appended after the cut lost on reopen: %q %v", cut, got, ok)
			}
			want++
		}
		if n := len(s.Refs()); n != want {
			t.Fatalf("cut at %d: %d refs, want %d", cut, n, want)
		}
	}
	for cut := lineEnd[batches-tornLines-1] + 1; cut <= len(full); cut++ {
		if err := os.WriteFile(journal, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(dir)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		check(re, cut, false)
		if err := re.SetRefs(map[string]string{"oras/tag/extra": extra}); err != nil {
			t.Fatal(err)
		}
		again, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		check(again, cut, true)
	}
}

// TestDiskOpenWritesNothing: opening a populated store only reads. Every
// file and directory keeps its path, size, mtime and bytes — even with a
// ref whose blob is gone, an orphan blob and a torn journal tail for
// Open to make sense of — and no file appears or disappears.
func TestDiskOpenWritesNothing(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	kept, _ := s.Put([]byte("kept"))
	gone, _ := s.Put([]byte("gone"))
	if err := s.SetRefs(map[string]string{"study/kept": kept, "study/gone": gone}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put([]byte("orphan")); err != nil {
		t.Fatal(err)
	}
	h, _ := parseDigest(gone)
	if err := os.Remove(filepath.Join(dir, "blobs", h)); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "refs.jsonl"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"set":{"study/torn":"sha`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Backdate everything, so a rewrite shows in an mtime even within the
	// filesystem's timestamp granularity.
	past := time.Now().Add(-time.Hour).Truncate(time.Second)
	if err := filepath.WalkDir(dir, func(p string, _ fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		return os.Chtimes(p, past, past)
	}); err != nil {
		t.Fatal(err)
	}
	before := treeState(t, dir)
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := re.Ref("study/kept"); !ok || got != kept {
		t.Fatalf("study/kept = %q %v", got, ok)
	}
	if _, ok := re.Ref("study/gone"); ok {
		t.Fatal("ref to a missing blob survived Open")
	}
	after := treeState(t, dir)
	for p, b := range before {
		if a, ok := after[p]; !ok {
			t.Errorf("Open removed %s", p)
		} else if a != b {
			t.Errorf("Open changed %s: %+v, was %+v", p, a, b)
		}
	}
	for p := range after {
		if _, ok := before[p]; !ok {
			t.Errorf("Open created %s", p)
		}
	}
}

// fileState is what TestDiskOpenWritesNothing compares per path.
type fileState struct {
	dir    bool
	size   int64
	mtime  time.Time
	sha256 string
}

// treeState records every file and directory under root.
func treeState(t *testing.T, root string) map[string]fileState {
	t.Helper()
	out := map[string]fileState{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		st := fileState{dir: d.IsDir(), size: info.Size(), mtime: info.ModTime()}
		if !d.IsDir() {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			st.sha256 = DigestOf(data)
		}
		out[p] = st
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
