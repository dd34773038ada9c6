package oras

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"cloudhpc/internal/store"
)

// TestDigestOfStable: the registry addresses content by its sha256, so
// the same bytes always get the same digest and different bytes another.
func TestDigestOfStable(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	a, _ := r.IngestBlob([]byte("hello"))
	b, _ := r.IngestBlob([]byte("hello"))
	if a != b {
		t.Fatalf("digest not deterministic")
	}
	if w, _ := r.IngestBlob([]byte("world")); a == w {
		t.Fatalf("different content same digest")
	}
	if a != store.DigestOf([]byte("hello")) || a[:7] != "sha256:" {
		t.Fatalf("digest format: %s", a)
	}
}

func TestPushFetchBlob(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	d, err := r.IngestBlob([]byte("data"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.FetchBlob(Digest(d))
	if err != nil || !bytes.Equal(got, []byte("data")) {
		t.Fatalf("fetch: %q %v", got, err)
	}
	for _, unknown := range []Digest{"sha256:0000", Digest(store.DigestOf([]byte("absent")))} {
		if _, err := r.FetchBlob(unknown); !errors.Is(err, ErrBlobUnknown) {
			t.Fatalf("unknown blob %s: %v", unknown, err)
		}
	}
}

// TestBlobDeduplication: identical content is stored once, whether it
// arrives as an ingest or as the layer of two pushes.
func TestBlobDeduplication(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	r.IngestBlob([]byte("same"))
	r.IngestBlob([]byte("same"))
	files := map[string][]byte{"f": []byte("same")}
	da, errA := r.Push("a", "t", files, nil)
	db, errB := r.Push("b", "t", files, nil)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if da != db {
		t.Fatalf("identical artifacts got manifests %s and %s", da, db)
	}
	if r.BlobCount() != 1 || r.ManifestCount() != 1 {
		t.Fatalf("identical content should deduplicate, have %d blobs and %d manifests", r.BlobCount(), r.ManifestCount())
	}
}

func TestFetchReturnsCopy(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	d, _ := r.IngestBlob([]byte("immutable"))
	got, _ := r.FetchBlob(Digest(d))
	got[0] = 'X'
	again, _ := r.FetchBlob(Digest(d))
	if again[0] != 'i' {
		t.Fatalf("registry content mutated through a fetch")
	}
}

// TestManifestNeedsLayers: Push refuses an artifact with no files or no
// type and stores nothing for it, so the registry never writes a
// manifest that Pull would refuse.
func TestManifestNeedsLayers(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	for _, tc := range []struct {
		name, artifactType string
		files              map[string][]byte
	}{
		{"no files", "t", nil},
		{"empty file set", "t", map[string][]byte{}},
		{"no artifact type", "", map[string][]byte{"f": []byte("x")}},
	} {
		if d, err := r.Push("v1", tc.artifactType, tc.files, nil); err == nil {
			t.Fatalf("%s: pushed as %s, want a refusal", tc.name, d)
		}
	}
	if n := r.blobs.Len(); n != 0 {
		t.Fatalf("refused pushes stored %d blobs", n)
	}
	if refs := r.blobs.Refs(); len(refs) != 0 {
		t.Fatalf("refused pushes set refs %v", refs)
	}
}

// TestTagResolve: Pull resolves a pushed tag to its artifact's files,
// and refuses a tag nothing pushed.
func TestTagResolve(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	d, err := r.Push("v1", "test", map[string][]byte{"x": []byte("x")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := r.blobs.Ref(tagRefPrefix + "v1"); !ok || Digest(got) != d {
		t.Fatalf("tag v1 -> %q %v, want %s", got, ok, d)
	}
	files, err := r.Pull("v1")
	if err != nil || len(files) != 1 || string(files["x"]) != "x" {
		t.Fatalf("pull: %q %v", files, err)
	}
	if _, err := r.Pull("absent"); !errors.Is(err, ErrTagUnknown) {
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

// TestLargeLayers: layers of largeLayer bytes or more are stored and
// verified on goroutines of their own. The files still round-trip, the
// manifest still lists every layer in name order whatever its size, and
// a pull reports the failure of the first layer in that order, whether
// that layer was fetched on a goroutine or on the caller.
func TestLargeLayers(t *testing.T) {
	t.Parallel()
	bs := store.NewMemory()
	r := NewRegistryWith(bs)
	files := map[string][]byte{
		"a-large": bytes.Repeat([]byte("a"), largeLayer),
		"b-small": []byte("small"),
		"c-large": bytes.Repeat([]byte("c"), 3*largeLayer),
		"d-below": bytes.Repeat([]byte("d"), largeLayer-1),
	}
	d, err := r.Push("big", "t", files, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Pull("big")
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.manifestAt(d)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a-large", "b-small", "c-large", "d-below"}
	for i, name := range names {
		if !bytes.Equal(got[name], files[name]) {
			t.Fatalf("%s did not round-trip", name)
		}
		l := m.Layers[i]
		if l.Annotations["org.opencontainers.image.title"] != name || l.Size != int64(len(files[name])) {
			t.Fatalf("layer %d is %v, want %s of %d bytes", i, l, name, len(files[name]))
		}
	}
	for _, tc := range []struct{ corrupt, first int }{
		{corrupt: 2, first: 2}, // one large layer, on a goroutine
		{corrupt: 3, first: 3}, // one small layer, on the caller
		{corrupt: 1, first: 1},
	} {
		for i := tc.corrupt; i < len(names); i++ {
			bs.Corrupt(string(m.Layers[i].Digest))
		}
		_, err := r.Pull("big")
		if !errors.Is(err, ErrDigestMismatch) || !strings.Contains(err.Error(), string(m.Layers[tc.first].Digest)) {
			t.Fatalf("layers %d.. corrupt: pull error %v, want layer %d's mismatch", tc.corrupt, err, tc.first)
		}
		if _, err := r.Push("big", "t", files, nil); err != nil { // heals the damaged blobs
			t.Fatal(err)
		}
	}
}

// TestManifestDigestCanonical: two pushes of one artifact whose file and
// annotation maps were built in different orders get one manifest digest.
func TestManifestDigestCanonical(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	f1 := map[string][]byte{}
	f1["a"], f1["b"] = []byte("x"), []byte("y")
	f2 := map[string][]byte{}
	f2["b"], f2["a"] = []byte("y"), []byte("x")
	a1 := map[string]string{}
	a1["k1"], a1["k2"] = "v1", "v2"
	a2 := map[string]string{}
	a2["k2"], a2["k1"] = "v2", "v1"
	d1, err1 := r.Push("one", "a", f1, a1)
	d2, err2 := r.Push("two", "a", f2, a2)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
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
				tag, data := fmt.Sprintf("t/%d/%d", i, j), []byte{byte(i), byte(j)}
				if _, err := r.Push(tag, "t", map[string][]byte{"f": data}, nil); err != nil {
					t.Errorf("push: %v", err)
					return
				}
				if got, err := r.Pull(tag); err != nil || !bytes.Equal(got["f"], data) {
					t.Errorf("concurrent pull mismatch: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if r.BlobCount() != 16*50 || r.ManifestCount() != 16*50 {
		t.Fatalf("%d blobs and %d manifests, want %d of each", r.BlobCount(), r.ManifestCount(), 16*50)
	}
}

func TestBlobRoundTripProperty(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	f := func(data []byte) bool {
		d, err := r.IngestBlob(data)
		if err != nil {
			return false
		}
		got, err := r.FetchBlob(Digest(d))
		return err == nil && bytes.Equal(got, data)
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
	d, _ := r.IngestBlob([]byte("pristine"))
	bs.Corrupt(d)
	if _, err := r.FetchBlob(Digest(d)); !errors.Is(err, ErrDigestMismatch) {
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
	absent := store.DigestOf([]byte("never stored"))
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
	d, err := r.IngestBlob(m.encode())
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
	if got, _ := r.blobs.Ref(tagRefPrefix + "unit/x"); Digest(got) != first {
		t.Fatalf("tag points at %s, want the first manifest %s", got, first)
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
// manifest — a plain blob, an absent digest, or JSON without an artifact
// type or without layers — or a manifest whose layer is missing, is
// refused and binds nothing, not the tag and not a manifest marker.
// PullDigest refuses each of them too.
func TestTagIfAbsentRefusesInvalidTargets(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	ingest := func(data []byte) Digest {
		t.Helper()
		d, err := r.IngestBlob(data)
		if err != nil {
			t.Fatal(err)
		}
		return Digest(d)
	}
	dangling := Manifest{ArtifactType: "t", Layers: []Descriptor{{
		MediaType: "application/octet-stream", Digest: Digest(store.DigestOf([]byte("never stored"))), Size: 12,
	}}}.encode()
	for _, tc := range []struct {
		name string
		d    Digest
		want error
	}{
		{"plain blob", ingest([]byte("not a manifest")), nil},
		{"absent digest", Digest(store.DigestOf([]byte("absent"))), ErrManifestUnknown},
		{"missing layer", ingest(dangling), ErrBlobUnknown},
		{"null", ingest([]byte("null")), nil},
		{"empty object", ingest([]byte("{}")), nil},
		{"no layers", ingest([]byte(`{"layers":[]}`)), nil},
		{"no artifact type", ingest([]byte(`{"artifactType":"x"}`)), nil},
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
		if files, err := r.PullDigest(tc.d); err == nil {
			t.Fatalf("%s: PullDigest returned %d files, want a refusal", tc.name, len(files))
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
		if got, _ := r.blobs.Ref(tagRefPrefix + fmt.Sprintf("unit/%d", k)); Digest(got) != digests[winner] {
			t.Fatalf("tag %d points at %s, want the winner's %s", k, got, digests[winner])
		}
	}
}
