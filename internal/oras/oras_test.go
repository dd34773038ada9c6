package oras

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"cloudhpc/internal/store"
)

func TestDigestOfStable(t *testing.T) {
	t.Parallel()
	a := DigestOf([]byte("hello"))
	b := DigestOf([]byte("hello"))
	if a != b {
		t.Fatalf("digest not deterministic")
	}
	if a == DigestOf([]byte("world")) {
		t.Fatalf("different content same digest")
	}
	if a[:7] != "sha256:" {
		t.Fatalf("digest format: %s", a)
	}
}

func TestPushFetchBlob(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	desc, err := r.PushBlob("text/plain", []byte("data"))
	if err != nil {
		t.Fatal(err)
	}
	if desc.Size != 4 {
		t.Fatalf("size = %d", desc.Size)
	}
	got, err := r.FetchBlob(desc.Digest)
	if err != nil || !bytes.Equal(got, []byte("data")) {
		t.Fatalf("fetch: %q %v", got, err)
	}
	if _, err := r.FetchBlob("sha256:0000"); !errors.Is(err, ErrBlobUnknown) {
		t.Fatalf("unknown blob: %v", err)
	}
}

func TestBlobDeduplication(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	r.PushBlob("a", []byte("same"))
	r.PushBlob("b", []byte("same"))
	if r.BlobCount() != 1 {
		t.Fatalf("identical content should deduplicate, have %d blobs", r.BlobCount())
	}
}

func TestFetchReturnsCopy(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	desc, _ := r.PushBlob("t", []byte("immutable"))
	got, _ := r.FetchBlob(desc.Digest)
	got[0] = 'X'
	again, _ := r.FetchBlob(desc.Digest)
	if again[0] != 'i' {
		t.Fatalf("registry content mutated through a fetch")
	}
}

func TestManifestNeedsLayers(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	_, err := r.PushManifest(Manifest{Layers: []Descriptor{{Digest: "sha256:missing"}}})
	if !errors.Is(err, ErrBlobUnknown) {
		t.Fatalf("dangling layer accepted: %v", err)
	}
}

func TestTagResolve(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	desc, _ := r.PushBlob("t", []byte("x"))
	d, err := r.PushManifest(Manifest{ArtifactType: "test", Layers: []Descriptor{desc}})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Tag("v1", d); err != nil {
		t.Fatal(err)
	}
	m, got, err := r.Resolve("v1")
	if err != nil || got != d || m.ArtifactType != "test" {
		t.Fatalf("resolve: %v %v", got, err)
	}
	if err := r.Tag("bad", "sha256:nope"); !errors.Is(err, ErrManifestUnknown) {
		t.Fatalf("tagging unknown manifest: %v", err)
	}
	if _, _, err := r.Resolve("absent"); !errors.Is(err, ErrTagUnknown) {
		t.Fatalf("unknown tag: %v", err)
	}
}

func TestPushPullRoundTrip(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	files := map[string][]byte{
		"lammps-256.out": []byte("FOM 443.9"),
		"hostfile":       []byte("node0\nnode1"),
	}
	if _, err := r.Push("results/run1", "app/results", files, map[string]string{"env": "gke"}); err != nil {
		t.Fatal(err)
	}
	got, err := r.Pull("results/run1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !bytes.Equal(got["lammps-256.out"], files["lammps-256.out"]) {
		t.Fatalf("round trip lost data: %v", got)
	}
	tags := r.Tags()
	if len(tags) != 1 || tags[0] != "results/run1" {
		t.Fatalf("tags = %v", tags)
	}
}

func TestManifestDigestCanonical(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	desc, _ := r.PushBlob("t", []byte("x"))
	m1 := Manifest{ArtifactType: "a", Layers: []Descriptor{desc},
		Annotations: map[string]string{"k1": "v1", "k2": "v2"}}
	m2 := Manifest{ArtifactType: "a", Layers: []Descriptor{desc},
		Annotations: map[string]string{"k2": "v2", "k1": "v1"}}
	d1, _ := r.PushManifest(m1)
	d2, _ := r.PushManifest(m2)
	if d1 != d2 {
		t.Fatalf("annotation order changed manifest identity")
	}
}

func TestConcurrentPushes(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				data := []byte{byte(i), byte(j)}
				desc, err := r.PushBlob("t", data)
				if err != nil {
					t.Errorf("push: %v", err)
					return
				}
				if got, err := r.FetchBlob(desc.Digest); err != nil || !bytes.Equal(got, data) {
					t.Errorf("concurrent fetch mismatch")
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if r.BlobCount() != 16*50 {
		t.Fatalf("blob count = %d", r.BlobCount())
	}
}

func TestBlobRoundTripProperty(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	f := func(data []byte) bool {
		desc, err := r.PushBlob("t", data)
		if err != nil {
			return false
		}
		got, err := r.FetchBlob(desc.Digest)
		return err == nil && bytes.Equal(got, data) && desc.Size == int64(len(data))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryPersistsOverDiskStore proves the pluggable backend end to
// end: a registry over a disk store survives process exit — reopening the
// same directory yields a registry that resolves every tag and verifies
// every blob.
func TestRegistryPersistsOverDiskStore(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	bs, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewRegistryWith(bs)
	files := map[string][]byte{"runs.jsonl": []byte(`{"env":"e"}` + "\n")}
	if _, err := r1.Push("results/e/app", "app/results", files, map[string]string{"records": "1"}); err != nil {
		t.Fatal(err)
	}

	bs2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRegistryWith(bs2)
	if tags := r2.Tags(); len(tags) != 1 || tags[0] != "results/e/app" {
		t.Fatalf("tags after reopen = %v", tags)
	}
	got, err := r2.Pull("results/e/app")
	if err != nil || !bytes.Equal(got["runs.jsonl"], files["runs.jsonl"]) {
		t.Fatalf("pull after reopen: %v %q", err, got)
	}
	if r2.BlobCount() != 1 || r2.ManifestCount() != 1 {
		t.Fatalf("counts after reopen: %d blobs, %d manifests", r2.BlobCount(), r2.ManifestCount())
	}
}

// TestFetchCorruptBlobReportsMismatch pins the verification path: bytes
// damaged underneath the registry surface as ErrDigestMismatch, never as
// silently wrong content.
func TestFetchCorruptBlobReportsMismatch(t *testing.T) {
	t.Parallel()
	bs := store.NewMemory()
	r := NewRegistryWith(bs)
	desc, _ := r.PushBlob("t", []byte("pristine"))
	bs.Corrupt(string(desc.Digest))
	if _, err := r.FetchBlob(desc.Digest); !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("want ErrDigestMismatch, got %v", err)
	}
}

// TestReconcileRefsSkipsMissingTargets: a sync ref batch may reference
// blobs the backend does not hold (a transfer that failed, or a blob
// evicted as vanished or corrupt) — those names must be skipped, never
// applied dangling.
func TestReconcileRefsSkipsMissingTargets(t *testing.T) {
	t.Parallel()
	bs := store.NewMemory()
	r := NewRegistryWith(bs)
	d, err := bs.Put([]byte("present"))
	if err != nil {
		t.Fatal(err)
	}
	absent := string(DigestOf([]byte("never stored")))
	applied, skipped, err := r.ReconcileRefs(map[string]string{
		"oras/tag/study/here":  d,
		"oras/tag/study/there": absent,
	})
	if err != nil {
		t.Fatal(err)
	}
	if applied != 1 || skipped != 1 {
		t.Fatalf("applied=%d skipped=%d, want 1/1", applied, skipped)
	}
	if got, ok := bs.Ref("oras/tag/study/here"); !ok || got != d {
		t.Fatalf("servable ref not applied: %q %v", got, ok)
	}
	if _, ok := bs.Ref("oras/tag/study/there"); ok {
		t.Fatal("dangling ref applied")
	}
}

// ingestManifest lands a one-layer manifest the way a fleet worker's
// upload does: layer and manifest arrive as plain sync ingests, with no
// manifest marker and no tag. It returns the manifest's digest.
func ingestManifest(t *testing.T, r *Registry, payload string) Digest {
	t.Helper()
	layer, err := r.IngestBlob([]byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	m := Manifest{ArtifactType: "t", Layers: []Descriptor{{
		MediaType: "application/octet-stream", Digest: Digest(layer), Size: int64(len(payload)),
	}}}
	data, err := m.encode()
	if err != nil {
		t.Fatal(err)
	}
	d, err := r.IngestBlob(data)
	if err != nil {
		t.Fatal(err)
	}
	return Digest(d)
}

// TestTagIfAbsentFirstWriteWins: an unbound tag binds and gains its
// manifest marker; a later call with another valid manifest reports
// false and leaves the tag where the first call put it.
func TestTagIfAbsentFirstWriteWins(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	first := ingestManifest(t, r, "first result")
	second := ingestManifest(t, r, "second result")
	if n := r.ManifestCount(); n != 0 {
		t.Fatalf("plain ingests carry %d manifest markers, want 0", n)
	}
	ok, err := r.TagIfAbsent("unit/x", first)
	if err != nil || !ok {
		t.Fatalf("unbound tag: ok=%v err=%v, want true", ok, err)
	}
	for _, d := range []Digest{second, first} {
		ok, err := r.TagIfAbsent("unit/x", d)
		if err != nil || ok {
			t.Fatalf("bound tag, manifest %s: ok=%v err=%v, want false", d, ok, err)
		}
	}
	if _, got, err := r.Resolve("unit/x"); err != nil || got != first {
		t.Fatalf("tag resolves to %s (%v), want the first manifest %s", got, err, first)
	}
	files, err := r.Pull("unit/x")
	if err != nil || string(files["layer-0"]) != "first result" {
		t.Fatalf("pull: %q %v", files, err)
	}
	if n := r.ManifestCount(); n != 1 {
		t.Fatalf("manifest markers = %d, want 1 (the winner's)", n)
	}
}

// TestTagIfAbsentRefusesInvalidTargets: a digest that is not a stored
// manifest, or a manifest whose layer is missing, is refused and binds
// nothing — not the tag and not a manifest marker.
func TestTagIfAbsentRefusesInvalidTargets(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	plain, err := r.IngestBlob([]byte("not a manifest"))
	if err != nil {
		t.Fatal(err)
	}
	dangling, err := Manifest{ArtifactType: "t", Layers: []Descriptor{{
		MediaType: "application/octet-stream", Digest: DigestOf([]byte("never stored")), Size: 12,
	}}}.encode()
	if err != nil {
		t.Fatal(err)
	}
	danglingDigest, err := r.IngestBlob(dangling)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		d    Digest
		want error
	}{
		{"plain blob", Digest(plain), nil},
		{"absent digest", DigestOf([]byte("absent")), ErrManifestUnknown},
		{"missing layer", Digest(danglingDigest), ErrBlobUnknown},
	} {
		ok, err := r.TagIfAbsent("unit/x", tc.d)
		if ok || err == nil {
			t.Fatalf("%s: ok=%v err=%v, want a refusal", tc.name, ok, err)
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Fatalf("%s: err=%v, want %v", tc.name, err, tc.want)
		}
		if tags := r.Tags(); len(tags) != 0 {
			t.Fatalf("%s: refused target left tags %v", tc.name, tags)
		}
		if n := r.ManifestCount(); n != 0 {
			t.Fatalf("%s: refused target left %d manifest markers", tc.name, n)
		}
	}
}

// TestTagIfAbsentRace: N goroutines race to bind each of several tags,
// each goroutine with its own valid manifest. For every tag exactly one
// call wins, and the tag resolves to the winner's digest — the
// check-and-set is atomic under the registry's exclusive lock.
func TestTagIfAbsentRace(t *testing.T) {
	t.Parallel()
	const n, tags = 16, 64
	r := NewRegistry()
	digests := make([]Digest, n)
	for i := range digests {
		digests[i] = ingestManifest(t, r, fmt.Sprintf("result from worker %d", i))
	}
	won := make([][tags]bool, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range digests {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			for k := 0; k < tags; k++ {
				ok, err := r.TagIfAbsent(fmt.Sprintf("unit/%d", k), digests[i])
				if err != nil {
					errs[i] = err
					return
				}
				won[i][k] = ok
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	for k := 0; k < tags; k++ {
		winner := -1
		for i := range won {
			if won[i][k] {
				if winner >= 0 {
					t.Fatalf("tag %d: callers %d and %d both bound it", k, winner, i)
				}
				winner = i
			}
		}
		if winner < 0 {
			t.Fatalf("tag %d: no caller bound it", k)
		}
		if _, got, err := r.Resolve(fmt.Sprintf("unit/%d", k)); err != nil || got != digests[winner] {
			t.Fatalf("tag %d resolves to %s (%v), want the winner's %s", k, got, err, digests[winner])
		}
	}
}
