package rpc

// The store.* method family: internal/store's digest-exchange sync on
// the wire, making a running daemon a federation hub. The server side
// answers inventory/fetch/put/refs against the Runner's result store;
// StorePeer is the client side, a store.Peer over the HTTP transport,
// so cli.ServeSync drives the same Push/Pull that reconciles two
// in-process stores.
//
// Blob payloads ride the existing NDJSON framing base64-encoded, in
// chunks of at most syncChunkBytes raw bytes so every line stays under
// maxLineBytes. Uploads are staged per connection (chunks of one digest
// arrive in order) and verified against their digest before anything
// is stored. The store never deletes, so a stored blob simply waits for
// the ref batch that names it, and store.refs skips any ref whose blob
// is absent.

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"

	"cloudhpc/internal/oras"
	"cloudhpc/internal/store"
)

// syncChunkBytes bounds one blob chunk's raw payload. Base64 inflates
// by 4/3, so a chunk line (payload plus framing) stays comfortably
// under the maxLineBytes cap.
const syncChunkBytes = 2 << 20

// maxSyncBlobBytes bounds one assembled upload — a hostile client must
// not balloon daemon memory by streaming chunks forever. Far above any
// study bundle the store produces today.
const maxSyncBlobBytes = 1 << 28

// storeRegistry resolves the registry behind the store.* methods: the
// Runner's store. A daemon started without -store has no sync surface —
// a hub must opt in to sharing a store.
func (c *conn) storeRegistry() (*oras.Registry, *Error) {
	if c.srv.Runner != nil && c.srv.Runner.Store != nil {
		return c.srv.Runner.Store.Registry(), nil
	}
	return nil, errf(CodeNoStore, "daemon has no result store (start it with -store DIR)")
}

// hasStore reports whether the store.* family is served — the
// initialize capability bit.
func (s *Server) hasStore() bool {
	return s.Runner != nil && s.Runner.Store != nil
}

func (c *conn) storeInventory() (any, *Error) {
	reg, e := c.storeRegistry()
	if e != nil {
		return nil, e
	}
	inv := reg.SyncInventory()
	return StoreInventoryResult{Digests: inv.Digests, Refs: inv.Refs}, nil
}

func (c *conn) storeFetch(raw json.RawMessage) (any, *Error) {
	reg, e := c.storeRegistry()
	if e != nil {
		return nil, e
	}
	var p StoreFetchParams
	if e := unmarshalParams(raw, &p); e != nil {
		return nil, e
	}
	if !store.ValidDigest(p.Digest) {
		return nil, errf(CodeInvalidParams, "malformed digest %q", p.Digest)
	}
	data, err := reg.FetchBlob(oras.Digest(p.Digest))
	if err != nil {
		// Unknown and corrupt both mean "cannot serve": the store's Get
		// has already evicted an unservable blob from the inventory, so
		// the peer's next diff stops asking.
		return nil, errf(CodeInvalidParams, "fetch %s: %v", p.Digest, err)
	}
	size := int64(len(data))
	if p.Offset < 0 || p.Offset > size {
		return nil, errf(CodeInvalidParams, "offset %d outside blob of %d bytes", p.Offset, size)
	}
	end := min(p.Offset+syncChunkBytes, size)
	return StoreFetchResult{
		Digest: p.Digest,
		Size:   size,
		Offset: p.Offset,
		Data:   base64.StdEncoding.EncodeToString(data[p.Offset:end]),
		EOF:    end == size,
	}, nil
}

// resetUpload abandons the connection's staged upload (bad chunk,
// digest mismatch, a ref batch landing, connection end): the next
// store.put starts fresh at offset 0.
func (c *conn) resetUpload() {
	c.mu.Lock()
	c.upDigest, c.upBuf = "", nil
	c.mu.Unlock()
}

func (c *conn) storePut(raw json.RawMessage) (any, *Error) {
	reg, e := c.storeRegistry()
	if e != nil {
		return nil, e
	}
	var p StorePutParams
	if e := unmarshalParams(raw, &p); e != nil {
		return nil, e
	}
	if !store.ValidDigest(p.Digest) {
		return nil, errf(CodeInvalidParams, "malformed digest %q", p.Digest)
	}
	chunk, err := base64.StdEncoding.DecodeString(p.Data)
	if err != nil {
		c.resetUpload()
		return nil, errf(CodeInvalidParams, "chunk payload is not base64: %v", err)
	}

	c.mu.Lock()
	switch {
	case c.upDigest == "":
		if p.Offset != 0 {
			c.mu.Unlock()
			return nil, errf(CodeInvalidParams, "first chunk of %s must start at offset 0, got %d", p.Digest, p.Offset)
		}
		c.upDigest = p.Digest
	case c.upDigest != p.Digest:
		d := c.upDigest
		c.mu.Unlock()
		return nil, errf(CodeInvalidParams, "upload of %s already in flight on this connection", d)
	case p.Offset != int64(len(c.upBuf)):
		got := int64(len(c.upBuf))
		c.mu.Unlock()
		c.resetUpload()
		return nil, errf(CodeInvalidParams, "chunk offset %d does not continue upload at %d", p.Offset, got)
	}
	if int64(len(c.upBuf))+int64(len(chunk)) > maxSyncBlobBytes {
		c.mu.Unlock()
		c.resetUpload()
		return nil, errf(CodeInvalidParams, "upload exceeds %d bytes", maxSyncBlobBytes)
	}
	c.upBuf = append(c.upBuf, chunk...)
	last := p.Last
	var assembled []byte
	if last {
		assembled = c.upBuf
		c.upDigest, c.upBuf = "", nil
	}
	c.mu.Unlock()

	if !last {
		return StorePutResult{Digest: p.Digest, Stored: false}, nil
	}
	// Arrival-side verification: the store must never be handed content
	// that does not hash to its declared name.
	if got := store.DigestOf(assembled); got != p.Digest {
		return nil, errf(CodeInvalidParams, "assembled content hashes to %s, not %s", got, p.Digest)
	}
	dig, err := reg.IngestBlob(assembled)
	if err != nil {
		return nil, errf(CodeInternal, "storing %s: %v", p.Digest, err)
	}
	return StorePutResult{Digest: dig, Stored: true}, nil
}

func (c *conn) storeRefs(raw json.RawMessage) (any, *Error) {
	reg, e := c.storeRegistry()
	if e != nil {
		return nil, e
	}
	var p StoreRefsParams
	if e := unmarshalParams(raw, &p); e != nil {
		return nil, e
	}
	for name, d := range p.Refs {
		if name == "" || !store.ValidDigest(d) {
			return nil, errf(CodeInvalidParams, "bad ref %q -> %q", name, d)
		}
	}
	applied, skipped, err := reg.ReconcileRefs(p.Refs)
	if err != nil {
		return nil, errf(CodeInternal, "reconciling refs: %v", err)
	}
	// The ref batch closes the push: an upload still staged is abandoned.
	c.resetUpload()
	return StoreRefsResult{Applied: applied, Skipped: skipped}, nil
}

// StorePeer speaks the store.* family to a daemon: the wire
// implementation of store.Peer, so store.Push and store.Pull drive a
// remote hub exactly like a local directory. Blob uploads send all
// chunks of one digest in a single POST — the HTTP transport gives each
// POST its own connection, and the server stages chunked uploads per
// connection.
type StorePeer struct {
	C *Client
}

// Inventory implements store.Peer.
func (p StorePeer) Inventory(ctx context.Context) (store.Inventory, error) {
	var res StoreInventoryResult
	if err := p.C.call(ctx, "store.inventory", struct{}{}, &res); err != nil {
		return store.Inventory{}, err
	}
	return store.Inventory{Digests: res.Digests, Refs: res.Refs}, nil
}

// Fetch implements store.Peer: loops chunk requests until EOF and
// returns the assembled bytes (the sync layer re-verifies the digest).
func (p StorePeer) Fetch(ctx context.Context, digest string) ([]byte, error) {
	var buf []byte
	for {
		var res StoreFetchResult
		err := p.C.call(ctx, "store.fetch", StoreFetchParams{Digest: digest, Offset: int64(len(buf))}, &res)
		if err != nil {
			return nil, err
		}
		chunk, err := base64.StdEncoding.DecodeString(res.Data)
		if err != nil {
			return nil, fmt.Errorf("rpc: store.fetch %s: bad chunk payload: %w", digest, err)
		}
		if res.Offset != int64(len(buf)) {
			return nil, fmt.Errorf("rpc: store.fetch %s: chunk at offset %d, expected %d", digest, res.Offset, len(buf))
		}
		buf = append(buf, chunk...)
		if res.EOF {
			return buf, nil
		}
		if len(chunk) == 0 {
			return nil, fmt.Errorf("rpc: store.fetch %s: empty non-final chunk", digest)
		}
	}
}

// Put implements store.Peer: all chunks of the blob travel in one POST
// so the server's per-connection staging sees them in order.
func (p StorePeer) Put(ctx context.Context, data []byte) (string, error) {
	digest := store.DigestOf(data)
	var b batch
	if err := b.addBlob(digest, data); err != nil {
		return "", err
	}
	var res StorePutResult
	if err := b.send(ctx, p.C, "store.put", &res); err != nil {
		return "", err
	}
	if !res.Stored {
		return "", fmt.Errorf("rpc: store.put %s: final chunk not acknowledged as stored", digest)
	}
	return res.Digest, nil
}

// addBlob appends data's store.put chunk lines, syncChunkBytes each.
func (b *batch) addBlob(digest string, data []byte) error {
	for off := 0; ; off += syncChunkBytes {
		end := min(off+syncChunkBytes, len(data))
		err := b.add("store.put", StorePutParams{
			Digest: digest,
			Offset: int64(off),
			Data:   base64.StdEncoding.EncodeToString(data[off:end]),
			Last:   end == len(data),
		})
		if err != nil || end == len(data) {
			return err
		}
	}
}

// SetRefs implements store.Peer.
func (p StorePeer) SetRefs(ctx context.Context, refs map[string]string) (int, error) {
	var res StoreRefsResult
	if err := p.C.call(ctx, "store.refs", StoreRefsParams{Refs: refs}, &res); err != nil {
		return 0, err
	}
	return res.Applied, nil
}
