package store

// Digest-exchange reconciliation between two content-addressed stores —
// the federation primitive (ROADMAP: "multi-branch sync", modeled on the
// enterprise multi-branch database synchronization scheme: branches
// exchange what the other is missing, and conflicts are impossible by
// construction). The protocol is three steps:
//
//  1. Inventory: each side lists the digests it can serve and the refs
//     it carries (refs whose target blob is unservable are withheld).
//  2. Diff: set subtraction on digests, per-name comparison on refs.
//  3. Transfer: only the missing blobs move, each verified against its
//     digest on arrival; then refs reconcile last-writer-wins per name.
//
// Blobs are immutable and self-verifying, so blob "conflicts" cannot
// exist: two stores holding the same digest hold the same bytes. Refs
// are derived names ("study/<spec-hash>", "unit/<sub-hash>" behind the
// oras prefixes): identical keys always name identical content, so
// last-writer-wins is a formality — a genuine divergence under one name
// means one side predates a deliberate schema bump, and the incoming
// value simply wins.
//
// The remote half of an exchange is the Peer interface: four verbs that
// Local satisfies in-process and internal/rpc's StorePeer carries over
// JSON-RPC (store.inventory / store.fetch / store.put / store.refs), so
// the same Push and Pull drive a same-process test and a two-daemon
// federation.

import (
	"context"
	"fmt"
	"sort"
)

// Inventory is one store's sync manifest: every blob digest it can
// serve and every ref it carries. Refs are filtered to servable targets
// when taken (see TakeInventory), so a manifest never advertises
// content the store cannot deliver.
type Inventory struct {
	Digests []string          `json:"digests"`
	Refs    map[string]string `json:"refs"`
}

// TakeInventory snapshots a store's manifest. A ref whose target blob
// is absent (evicted because its file vanished or its bytes were
// damaged) is withheld rather than advertised.
func TakeInventory(s BlobStore) Inventory {
	inv := Inventory{Digests: s.Digests(), Refs: make(map[string]string)}
	have := make(map[string]bool, len(inv.Digests))
	for _, d := range inv.Digests {
		have[d] = true
	}
	for _, name := range s.Refs() {
		if d, ok := s.Ref(name); ok && have[d] {
			inv.Refs[name] = d
		}
	}
	return inv
}

// Delta is what a destination is missing relative to a source: the
// blobs to transfer and the refs to apply (absent at the destination,
// or pointing elsewhere — last-writer-wins, the source value).
type Delta struct {
	Blobs []string
	Refs  map[string]string
}

// Diff computes the delta that makes dst carry everything src does.
// Blobs are a set subtraction; refs compare per name. The result is
// deterministic: Blobs comes out sorted.
func Diff(src, dst Inventory) Delta {
	have := make(map[string]bool, len(dst.Digests))
	for _, d := range dst.Digests {
		have[d] = true
	}
	delta := Delta{Refs: make(map[string]string)}
	for _, d := range src.Digests {
		if !have[d] {
			delta.Blobs = append(delta.Blobs, d)
		}
	}
	sort.Strings(delta.Blobs)
	for name, d := range src.Refs {
		if dst.Refs[name] != d {
			delta.Refs[name] = d
		}
	}
	return delta
}

// Peer is the remote half of a sync exchange — the verb set a store
// exposes to a syncing counterpart. Local adapts an in-process
// BlobStore; rpc.StorePeer speaks the same verbs to a daemon.
type Peer interface {
	// Inventory returns the peer's current manifest.
	Inventory(ctx context.Context) (Inventory, error)
	// Fetch returns one blob's bytes. The caller re-verifies the digest
	// on arrival; the peer verifies on its side too (Get semantics).
	Fetch(ctx context.Context, digest string) ([]byte, error)
	// Put stores one blob at the peer and returns the digest the peer
	// computed — the arrival-side verification.
	Put(ctx context.Context, data []byte) (string, error)
	// SetRefs applies a ref batch last-writer-wins, skipping any ref
	// whose target blob the peer does not hold, and reports how many
	// were applied.
	SetRefs(ctx context.Context, refs map[string]string) (applied int, err error)
}

// Local adapts an in-process BlobStore into a Peer, so one Push/Pull
// implementation serves both same-process reconciliation (two store
// directories on one machine) and the wire.
type Local struct{ S BlobStore }

// Inventory implements Peer.
func (l Local) Inventory(ctx context.Context) (Inventory, error) {
	return TakeInventory(l.S), nil
}

// Fetch implements Peer.
func (l Local) Fetch(ctx context.Context, digest string) ([]byte, error) {
	return l.S.Get(digest)
}

// Put implements Peer.
func (l Local) Put(ctx context.Context, data []byte) (string, error) {
	return l.S.Put(data)
}

// SetRefs implements Peer: refs whose targets are absent are skipped,
// not errors — the blob may have been withheld (source-side corruption
// discovered mid-transfer) and the ref must not outrun its content.
func (l Local) SetRefs(ctx context.Context, refs map[string]string) (int, error) {
	apply := make(map[string]string, len(refs))
	for name, d := range refs {
		if l.S.Has(d) {
			apply[name] = d
		}
	}
	if len(apply) == 0 {
		return 0, nil
	}
	if err := l.S.SetRefs(apply); err != nil {
		return 0, err
	}
	return len(apply), nil
}

// SyncStats reports what one Push or Pull moved. A re-sync of
// already-converged stores reports all zeros — the cheap-no-op property
// the convergence tests pin.
type SyncStats struct {
	BlobsSent    int   // blobs transferred (absent at the receiver)
	BlobsSkipped int   // advertised blobs that could not be read at the source
	BytesSent    int64 // total transferred payload
	RefsApplied  int   // refs created or re-pointed at the receiver
}

func (st SyncStats) String() string {
	return fmt.Sprintf("%d blob(s), %d byte(s), %d ref(s), %d skipped",
		st.BlobsSent, st.BytesSent, st.RefsApplied, st.BlobsSkipped)
}

// Push transfers to dst every blob it lacks from src, then reconciles
// refs. Each blob is verified on arrival by the receiver (Put recomputes
// the digest); a mismatch is a hard error, because it means the
// transport altered bytes. A blob src advertises but can no longer
// serve is skipped — src's Get evicts it from the inventory — and any
// refs pointing at it are withheld so dst never gains a dangling name.
func Push(ctx context.Context, src BlobStore, dst Peer) (SyncStats, error) {
	dinv, err := dst.Inventory(ctx)
	if err != nil {
		return SyncStats{}, fmt.Errorf("sync: peer inventory: %w", err)
	}
	return transfer(ctx, Diff(TakeInventory(src), dinv), Local{src}, dst)
}

// Pull transfers from src every blob dst lacks, then reconciles refs —
// Push with the roles reversed, so the two compose into a bidirectional
// exchange that converges both stores to the union.
func Pull(ctx context.Context, dst BlobStore, src Peer) (SyncStats, error) {
	sinv, err := src.Inventory(ctx)
	if err != nil {
		return SyncStats{}, fmt.Errorf("sync: peer inventory: %w", err)
	}
	return transfer(ctx, Diff(sinv, TakeInventory(dst)), src, Local{dst})
}

// transfer moves one delta from a source peer to a destination peer:
// blobs first (verified on arrival), refs last, so a ref can never land
// before the content it names.
func transfer(ctx context.Context, delta Delta, from, to Peer) (SyncStats, error) {
	var st SyncStats
	unserved := make(map[string]bool)
	for _, d := range delta.Blobs {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		data, err := from.Fetch(ctx, d)
		if err != nil {
			// The source advertised a blob it cannot serve (lost or
			// corrupted since the inventory). Skip it and withhold its
			// refs; the next exchange sees a truthful inventory.
			st.BlobsSkipped++
			unserved[d] = true
			continue
		}
		if got := DigestOf(data); got != d {
			return st, fmt.Errorf("sync: fetched %s but content hashes to %s", d, got)
		}
		got, err := to.Put(ctx, data)
		if err != nil {
			return st, fmt.Errorf("sync: storing %s: %w", d, err)
		}
		if got != d {
			return st, fmt.Errorf("sync: stored %s but receiver reports %s", d, got)
		}
		st.BlobsSent++
		st.BytesSent += int64(len(data))
	}
	refs := make(map[string]string, len(delta.Refs))
	for name, d := range delta.Refs {
		if !unserved[d] {
			refs[name] = d
		}
	}
	if len(refs) > 0 {
		applied, err := to.SetRefs(ctx, refs)
		if err != nil {
			return st, fmt.Errorf("sync: reconciling refs: %w", err)
		}
		st.RefsApplied = applied
	}
	return st, nil
}
