// Package oras implements the content-addressable OCI registry the study
// leaned on: container images were "deployed to the registry alongside the
// repository", and job output was "saved to file and pushed to a registry"
// via ORAS (paper §2.7, §2.9 — the release holds 25,541 run datasets).
//
// The model follows the OCI distribution spec's skeleton: blobs are
// addressed by SHA-256 digest, manifests reference blob descriptors plus
// an artifact type, and tags name manifests. Pushing identical content
// twice deduplicates, and every pull verifies digests end to end.
//
// Storage is pluggable: a Registry keeps *all* of its state — blobs,
// manifests (as canonical-JSON blobs), and tags (as refs) — in a
// store.BlobStore. NewRegistry uses the in-memory store (tests, transient
// runs); NewRegistryWith accepts any backend, and over store.Disk the
// registry is durable: a re-opened store yields a registry that resolves
// every previously pushed tag, which is what cmd/archive and the
// persistent result store build on.
package oras

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"cloudhpc/internal/jsonl"
	"cloudhpc/internal/store"
)

// Digest is a "sha256:<hex>" content address.
type Digest string

// Descriptor points at a blob: digest, size, and media type.
type Descriptor struct {
	MediaType string `json:"mediaType"`
	Digest    Digest `json:"digest"`
	Size      int64  `json:"size"`
	// Annotations carry ORAS-style metadata (file name, env, app...).
	Annotations map[string]string `json:"annotations,omitempty"`
}

// Manifest ties descriptors together under an artifact type.
type Manifest struct {
	ArtifactType string            `json:"artifactType"`
	Layers       []Descriptor      `json:"layers"`
	Annotations  map[string]string `json:"annotations,omitempty"`
}

// encode renders the manifest's canonical form: the bytes json.Marshal
// writes for it (struct fields in declaration order, map keys sorted,
// strings escaped as encoding/json escapes them), so identical manifests
// always serialize identically. The encoding doubles as the stored
// representation, making the manifest its own content-addressed blob.
func (m Manifest) encode() []byte {
	b := make([]byte, 0, 128+192*len(m.Layers))
	b = append(b, `{"artifactType":`...)
	b = jsonl.AppendString(b, m.ArtifactType)
	b = append(b, `,"layers":`...)
	if m.Layers == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range m.Layers {
			if i > 0 {
				b = append(b, ',')
			}
			b = m.Layers[i].appendJSON(b)
		}
		b = append(b, ']')
	}
	if len(m.Annotations) > 0 {
		b = append(b, `,"annotations":`...)
		b = jsonl.AppendStringMap(b, m.Annotations)
	}
	return append(b, '}')
}

func (d *Descriptor) appendJSON(b []byte) []byte {
	b = append(b, `{"mediaType":`...)
	b = jsonl.AppendString(b, d.MediaType)
	b = append(b, `,"digest":`...)
	b = jsonl.AppendString(b, string(d.Digest))
	b = append(b, `,"size":`...)
	b = strconv.AppendInt(b, d.Size, 10)
	if len(d.Annotations) > 0 {
		b = append(b, `,"annotations":`...)
		b = jsonl.AppendStringMap(b, d.Annotations)
	}
	return append(b, '}')
}

// UnmarshalJSONL decodes a stored manifest. It is strict (see
// jsonl.Object): it accepts a subset of what json.Unmarshal accepts and
// decodes an equal value from it. A repeated "layers" key is refused;
// a repeated "annotations" key merges, as in encoding/json.
func (m *Manifest) UnmarshalJSONL(o *jsonl.Object) error {
	seenLayers := false
	for o.Next() {
		switch string(o.Key()) {
		case "artifactType":
			m.ArtifactType = o.Text()
		case "layers":
			if seenLayers {
				o.RepeatedKey()
			}
			seenLayers = true
			m.Layers = decodeLayers(o)
		case "annotations":
			m.Annotations = o.StringMap(m.Annotations)
		default:
			o.UnknownKey()
		}
	}
	return o.Err()
}

// decodeLayers reads a manifest's layer array: null reads as nil and []
// as an empty list, as in encoding/json. The list starts with room for
// a study bundle's four layers.
func decodeLayers(o *jsonl.Object) []Descriptor {
	if o.Null() {
		return nil
	}
	layers := make([]Descriptor, 0, 4)
	for o.Elem() {
		layers = append(layers, Descriptor{})
		d := &layers[len(layers)-1]
		for o.Next() {
			switch string(o.Key()) {
			case "mediaType":
				d.MediaType = o.Text()
			case "digest":
				d.Digest = Digest(o.Text())
			case "size":
				d.Size = o.Int64()
			case "annotations":
				d.Annotations = o.StringMap(d.Annotations)
			default:
				o.UnknownKey()
			}
		}
	}
	return layers
}

// Registry errors.
var (
	ErrBlobUnknown     = errors.New("oras: blob unknown to registry")
	ErrManifestUnknown = errors.New("oras: manifest unknown")
	ErrTagUnknown      = errors.New("oras: tag unknown")
	ErrDigestMismatch  = errors.New("oras: content does not match digest")
)

// Ref-name prefixes inside the blob store. Manifests are marked with a
// ref so the registry can tell them apart from content blobs without a
// separate index; tags are refs from name to manifest digest.
const (
	manifestRefPrefix = "oras/manifest/"
	tagRefPrefix      = "oras/tag/"
)

// Registry is a content-addressed OCI registry over a pluggable blob
// store. Safe for concurrent use within one process: the backends
// serialize their own state, and concurrent pushes are idempotent. The
// registry only ever adds: no blob, manifest or marker ref is deleted,
// so a layer stored by one call is still there for the manifest check
// of the next. Sharing one backend directory between processes is safe
// for pushes.
type Registry struct {
	// mu makes TagIfAbsent's check-and-set atomic: TagIfAbsent holds it
	// exclusively and every other operation holds it shared, so no push,
	// tag or ref batch lands between TagIfAbsent's absence check and its
	// ref write. Shared holders interleave freely with each other.
	mu    sync.RWMutex
	blobs store.BlobStore
}

// NewRegistry returns an empty registry over an in-memory store.
func NewRegistry() *Registry {
	return NewRegistryWith(store.NewMemory())
}

// NewRegistryWith returns a registry over the given backend. Over a
// store.Disk backend the registry is persistent: every blob, manifest,
// and tag previously pushed into the same directory is visible.
func NewRegistryWith(bs store.BlobStore) *Registry {
	return &Registry{blobs: bs}
}

// FetchBlob retrieves and verifies a blob.
func (r *Registry) FetchBlob(d Digest) ([]byte, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.fetchBlobLocked(d)
}

func (r *Registry) fetchBlobLocked(d Digest) ([]byte, error) {
	data, err := r.blobs.Get(string(d))
	switch {
	case errors.Is(err, store.ErrNotFound), errors.Is(err, store.ErrBadDigest):
		return nil, fmt.Errorf("%w: %s", ErrBlobUnknown, d)
	case errors.Is(err, store.ErrCorrupt):
		return nil, fmt.Errorf("%w: %s", ErrDigestMismatch, d)
	case err != nil:
		return nil, err
	}
	return data, nil
}

// manifestAt fetches and decodes a stored manifest blob. A blob the
// strict decoder refuses is not a manifest, and neither is a manifest
// without an artifact type or without layers; Push never writes one.
func (r *Registry) manifestAt(d Digest) (Manifest, error) {
	data, err := r.blobs.Get(string(d))
	switch {
	case errors.Is(err, store.ErrNotFound), errors.Is(err, store.ErrBadDigest):
		return Manifest{}, fmt.Errorf("%w: %s", ErrManifestUnknown, d)
	case errors.Is(err, store.ErrCorrupt):
		return Manifest{}, fmt.Errorf("%w: manifest %s", ErrDigestMismatch, d)
	case err != nil:
		return Manifest{}, err
	}
	var m Manifest
	if err := jsonl.Decode(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("oras: decoding manifest %s: %w", d, err)
	}
	if m.ArtifactType == "" || len(m.Layers) == 0 {
		return Manifest{}, fmt.Errorf("oras: %s is not a manifest: it needs an artifact type and at least one layer", d)
	}
	return m, nil
}

// Tags lists all tag names, sorted.
func (r *Registry) Tags() []string {
	var out []string
	for _, ref := range r.blobs.Refs() {
		if name, ok := strings.CutPrefix(ref, tagRefPrefix); ok {
			out = append(out, name)
		}
	}
	return out // Refs() is sorted and the prefix is constant, so out is too
}

// BlobCount reports the number of content blobs (dedup visible here);
// manifest blobs are accounted separately by ManifestCount.
func (r *Registry) BlobCount() int {
	return r.blobs.Len() - r.ManifestCount()
}

// ManifestCount reports the number of stored manifests.
func (r *Registry) ManifestCount() int {
	n := 0
	for _, ref := range r.blobs.Refs() {
		if strings.HasPrefix(ref, manifestRefPrefix) {
			n++
		}
	}
	return n
}

// SyncInventory snapshots the backend's sync manifest (see
// store.TakeInventory) under the registry's shared lock.
func (r *Registry) SyncInventory() store.Inventory {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return store.TakeInventory(r.blobs)
}

// IngestBlob stores sync-delivered bytes and returns their digest. The
// blob carries no ref until the peer's ref batch lands; nothing deletes
// it meanwhile, so it simply waits for that batch (and stays
// unreferenced if the batch never comes).
func (r *Registry) IngestBlob(data []byte) (string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.blobs.Put(data)
}

// ReconcileRefs applies a sync ref batch last-writer-wins, skipping any
// name whose target blob the backend does not hold — a ref must never
// outrun its content. A batch can name a blob whose transfer failed, or
// one the backend evicted as vanished or corrupt.
func (r *Registry) ReconcileRefs(refs map[string]string) (applied, skipped int, err error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	apply := make(map[string]string, len(refs))
	for name, d := range refs {
		if r.blobs.Has(d) {
			apply[name] = d
		} else {
			skipped++
		}
	}
	if len(apply) == 0 {
		return 0, skipped, nil
	}
	if err := r.blobs.SetRefs(apply); err != nil {
		return 0, skipped, err
	}
	return len(apply), skipped, nil
}

// largeLayer is the size from which a layer is stored, fetched and
// verified on a goroutine of its own: hashing it costs far more than
// starting one. A study bundle's runs.jsonl and trace.jsonl (about half
// a megabyte each) are above it; its meta.json and meter.jsonl and both
// files of a unit artifact (a few kilobytes) are below it, and stay on
// the caller.
const largeLayer = 64 << 10

// layerGroup bounds the goroutines of one Push or pull's large layers
// at GOMAXPROCS: a pulled manifest's layer list is input, as long as it
// likes. Each goroutine is handed its result slots and the group's done
// channel, which is made only when a large layer exists, so an artifact
// of small layers starts no goroutine and allocates nothing for one.
type layerGroup struct {
	done    chan struct{}
	running int
}

// slot makes room for one more goroutine, waiting for a running one to
// end if GOMAXPROCS are, and returns the channel it signals at its end.
func (g *layerGroup) slot() chan<- struct{} {
	if g.done == nil {
		g.done = make(chan struct{}, runtime.GOMAXPROCS(0))
	}
	if g.running == cap(g.done) {
		<-g.done
		g.running--
	}
	g.running++
	return g.done
}

// wait returns once every goroutine the group started has ended.
func (g *layerGroup) wait() {
	for ; g.running > 0; g.running-- {
		<-g.done
	}
}

// firstErr returns the first non-nil error, in layer order.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Push is the ORAS convenience verb: store files as layers under one
// manifest and tag it. Files map name → content; names land in layer
// annotations like `oras push` does, in sorted name order so the layer
// list — and therefore the manifest digest — is deterministic. Large
// layers are stored concurrently (see largeLayer); an error is the first
// in layer order. An artifact needs a type and at least one file: Push
// writes no manifest that Pull would refuse.
func (r *Registry) Push(tag, artifactType string, files map[string][]byte, annotations map[string]string) (Digest, error) {
	if artifactType == "" || len(files) == 0 {
		return "", fmt.Errorf("oras: push %q: an artifact needs a type and at least one file", tag)
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	m := Manifest{ArtifactType: artifactType, Layers: make([]Descriptor, len(names)), Annotations: annotations}
	errs := make([]error, len(names))
	var g layerGroup
	for i, name := range names {
		if data := files[name]; len(data) < largeLayer {
			r.putLayer(&m.Layers[i], &errs[i], name, data, nil)
		} else {
			go r.putLayer(&m.Layers[i], &errs[i], name, data, g.slot())
		}
	}
	g.wait()
	if err := firstErr(errs); err != nil {
		return "", err
	}
	// One batched ref update covers the manifest marker and the tag, so
	// an artifact push persists the backing index once, not twice.
	dig, err := r.blobs.Put(m.encode())
	if err != nil {
		return "", err
	}
	if err := r.blobs.SetRefs(map[string]string{
		manifestRefPrefix + dig: dig,
		tagRefPrefix + tag:      dig,
	}); err != nil {
		return "", err
	}
	return Digest(dig), nil
}

// putLayer stores one file as a layer into its descriptor and error
// slots, then signals done when it runs on a goroutine of its own.
func (r *Registry) putLayer(l *Descriptor, errp *error, name string, data []byte, done chan<- struct{}) {
	dig, err := r.blobs.Put(data)
	*l = Descriptor{
		MediaType: "application/octet-stream", Digest: Digest(dig), Size: int64(len(data)),
		Annotations: map[string]string{"org.opencontainers.image.title": name},
	}
	*errp = err
	if done != nil {
		done <- struct{}{}
	}
}

// Pull fetches all files of a tagged artifact.
func (r *Registry) Pull(tag string) (map[string][]byte, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	dig, ok := r.blobs.Ref(tagRefPrefix + tag)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrTagUnknown, tag)
	}
	return r.pullLocked(Digest(dig))
}

// PullDigest fetches all files of an artifact by its manifest digest,
// with no tag in between — how the fleet coordinator reads a pushed unit
// artifact for verification before any ref anchors it. The manifest blob
// need not carry a manifest marker yet (sync-delivered blobs are plain
// ingests); it only has to decode as a manifest whose layers are present.
func (r *Registry) PullDigest(d Digest) (map[string][]byte, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.pullLocked(d)
}

func (r *Registry) pullLocked(d Digest) (map[string][]byte, error) {
	m, err := r.manifestAt(d)
	if err != nil {
		return nil, err
	}
	blobs := make([][]byte, len(m.Layers))
	errs := make([]error, len(m.Layers))
	var g layerGroup
	for i := range m.Layers {
		if l := &m.Layers[i]; l.Size < largeLayer {
			r.fetchLayer(&blobs[i], &errs[i], l.Digest, nil)
		} else {
			go r.fetchLayer(&blobs[i], &errs[i], l.Digest, g.slot())
		}
	}
	g.wait()
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(m.Layers))
	for i, l := range m.Layers {
		name := l.Annotations["org.opencontainers.image.title"]
		if name == "" {
			name = fmt.Sprintf("layer-%d", i)
		}
		out[name] = blobs[i]
	}
	return out, nil
}

// fetchLayer fetches and verifies one layer into its data and error
// slots, then signals done when it runs on a goroutine of its own.
func (r *Registry) fetchLayer(data *[]byte, errp *error, d Digest, done chan<- struct{}) {
	*data, *errp = r.fetchBlobLocked(d)
	if done != nil {
		done <- struct{}{}
	}
}

// TagIfAbsent points a name at a manifest digest only if the name is
// currently unbound — first-write-wins, the property that makes duplicate
// fleet completions harmless: the first verified artifact claims the tag
// and every later completion of the same unit becomes a no-op. The
// target may be a plain ingested blob; it is validated here (it must
// decode as a manifest and every layer must be present) and gains its
// manifest marker together with the tag. The exclusive lock makes the
// absence check and the ref write atomic against concurrent taggers.
func (r *Registry) TagIfAbsent(name string, d Digest) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.blobs.Ref(tagRefPrefix + name); ok {
		return false, nil
	}
	m, err := r.manifestAt(d)
	if err != nil {
		return false, err
	}
	for _, l := range m.Layers {
		if !r.blobs.Has(string(l.Digest)) {
			return false, fmt.Errorf("%w: manifest references %s", ErrBlobUnknown, l.Digest)
		}
	}
	if err := r.blobs.SetRefs(map[string]string{
		manifestRefPrefix + string(d): string(d),
		tagRefPrefix + name:           string(d),
	}); err != nil {
		return false, err
	}
	return true, nil
}
