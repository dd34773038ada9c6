package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// both runs a subtest against a Disk store and a Memory store, proving
// the two BlobStore implementations are interchangeable.
func both(t *testing.T, fn func(t *testing.T, s BlobStore)) {
	t.Helper()
	t.Run("disk", func(t *testing.T) {
		t.Parallel()
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		fn(t, s)
	})
	t.Run("memory", func(t *testing.T) {
		t.Parallel()
		fn(t, NewMemory())
	})
}

func TestPutGetRoundTrip(t *testing.T) {
	t.Parallel()
	both(t, func(t *testing.T, s BlobStore) {
		data := []byte("the supermarket fish problem")
		d, err := s.Put(data)
		if err != nil {
			t.Fatal(err)
		}
		if d != DigestOf(data) || !strings.HasPrefix(d, "sha256:") {
			t.Fatalf("digest = %q", d)
		}
		got, err := s.Get(d)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("get: %v %q", err, got)
		}
		if !s.Has(d) || s.Len() != 1 {
			t.Fatalf("Has=%v Len=%d", s.Has(d), s.Len())
		}
		// Idempotent: same content, same digest, no growth.
		if d2, _ := s.Put(data); d2 != d || s.Len() != 1 {
			t.Fatalf("dedup broken: %q len=%d", d2, s.Len())
		}
	})
}

func TestGetMissingAndMalformed(t *testing.T) {
	t.Parallel()
	both(t, func(t *testing.T, s BlobStore) {
		if _, err := s.Get(DigestOf([]byte("absent"))); !errors.Is(err, ErrNotFound) {
			t.Fatalf("want ErrNotFound, got %v", err)
		}
		for _, bad := range []string{"", "sha256:short", "md5:abc", "sha256:../../../etc/passwd", "sha256:" + strings.Repeat("Z", 64)} {
			if _, err := s.Get(bad); !errors.Is(err, ErrBadDigest) {
				t.Fatalf("digest %q: want ErrBadDigest, got %v", bad, err)
			}
		}
	})
}

func TestRefs(t *testing.T) {
	t.Parallel()
	both(t, func(t *testing.T, s BlobStore) {
		d, _ := s.Put([]byte("v1"))
		if err := s.SetRef("study/abc", "sha256:"+strings.Repeat("0", 64)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("ref to missing blob accepted: %v", err)
		}
		if err := s.SetRef("study/abc", d); err != nil {
			t.Fatal(err)
		}
		got, ok := s.Ref("study/abc")
		if !ok || got != d {
			t.Fatalf("ref = %q %v", got, ok)
		}
		d2, _ := s.Put([]byte("v2"))
		if err := s.SetRef("study/abc", d2); err != nil { // refs are mutable
			t.Fatal(err)
		}
		if got, _ := s.Ref("study/abc"); got != d2 {
			t.Fatalf("ref not updated: %q", got)
		}
		s.SetRef("unit/x", d)
		if refs := s.Refs(); len(refs) != 2 || refs[0] != "study/abc" || refs[1] != "unit/x" {
			t.Fatalf("refs = %v", refs)
		}
	})
}

func TestBlobRoundTripProperty(t *testing.T) {
	t.Parallel()
	both(t, func(t *testing.T, s BlobStore) {
		f := func(data []byte) bool {
			d, err := s.Put(data)
			if err != nil {
				return false
			}
			got, err := s.Get(d)
			return err == nil && bytes.Equal(got, data)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestConcurrentPuts(t *testing.T) {
	t.Parallel()
	both(t, func(t *testing.T, s BlobStore) {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for j := 0; j < 20; j++ {
					data := []byte(fmt.Sprintf("blob-%d-%d", i, j))
					d, err := s.Put(data)
					if err != nil {
						t.Errorf("put: %v", err)
						return
					}
					if got, err := s.Get(d); err != nil || !bytes.Equal(got, data) {
						t.Errorf("get after put: %v", err)
						return
					}
				}
			}(i)
		}
		wg.Wait()
		if s.Len() != 8*20 {
			t.Fatalf("len = %d, want %d", s.Len(), 8*20)
		}
	})
}

func TestDiskPersistsAcrossOpen(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := s1.Put([]byte("durable"))
	if err := s1.SetRef("study/k", d); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get(d)
	if err != nil || string(got) != "durable" {
		t.Fatalf("reopen lost blob: %v %q", err, got)
	}
	if ref, ok := s2.Ref("study/k"); !ok || ref != d {
		t.Fatalf("reopen lost ref: %q %v", ref, ok)
	}
}

func TestDiskRebuildsFromBlobsWhenIndexLost(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s1, _ := Open(dir)
	d, _ := s1.Put([]byte("orphan-adopted"))
	s1.SetRef("tags/x", d)

	// The ref journal is the store's only ref index. Losing it loses the
	// refs; the blobs are still the truth and the scan recovers the
	// content.
	if err := os.Remove(filepath.Join(dir, "refs.jsonl")); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Has(d) {
		t.Fatal("blob not recovered from directory scan")
	}
	if _, ok := s2.Ref("tags/x"); ok {
		t.Fatal("refs should not survive losing the journal")
	}
}

func TestDiskDetectsCorruption(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s, _ := Open(dir)
	data := []byte("will be damaged")
	d, _ := s.Put(data)

	h := strings.TrimPrefix(d, "sha256:")
	if err := os.WriteFile(filepath.Join(dir, "blobs", h), []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(d); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

func TestMemoryCorruptHook(t *testing.T) {
	t.Parallel()
	m := NewMemory()
	d, _ := m.Put([]byte("pristine"))
	if !m.Corrupt(d) {
		t.Fatal("Corrupt reported absent digest")
	}
	if _, err := m.Get(d); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	if m.Corrupt("sha256:" + strings.Repeat("0", 64)) {
		t.Fatal("Corrupt invented a digest")
	}
}

func TestDiskLeavesNoTempFiles(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s, _ := Open(dir)
	for i := 0; i < 10; i++ {
		if _, err := s.Put([]byte(fmt.Sprintf("blob %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, sub := range []string{dir, filepath.Join(dir, "blobs")} {
		entries, err := os.ReadDir(sub)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), "tmp-") {
				t.Fatalf("leftover temp file %s", e.Name())
			}
		}
	}
}

// TestPutHealsCorruptBlob pins the self-healing path: re-storing pristine
// content for a digest whose bytes were damaged replaces the damage, so a
// recompute-after-corruption repairs the store instead of leaving the
// digest permanently poisoned behind the dedup check.
func TestPutHealsCorruptBlob(t *testing.T) {
	t.Parallel()
	t.Run("disk", func(t *testing.T) {
		t.Parallel()
		dir := t.TempDir()
		s, _ := Open(dir)
		data := []byte("heal me")
		d, _ := s.Put(data)
		h := strings.TrimPrefix(d, "sha256:")
		if err := os.WriteFile(filepath.Join(dir, "blobs", h), []byte("damage"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Get(d); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("setup: want ErrCorrupt, got %v", err)
		}
		if _, err := s.Put(data); err != nil {
			t.Fatal(err)
		}
		got, err := s.Get(d)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("blob not healed: %v %q", err, got)
		}
	})
	t.Run("memory", func(t *testing.T) {
		t.Parallel()
		m := NewMemory()
		data := []byte("heal me")
		d, _ := m.Put(data)
		m.Corrupt(d)
		if _, err := m.Put(data); err != nil {
			t.Fatal(err)
		}
		if got, err := m.Get(d); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("blob not healed: %v %q", err, got)
		}
	})
}
