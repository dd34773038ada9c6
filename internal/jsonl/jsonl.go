// Package jsonl is the one JSON-lines codec behind every archived wire
// form — dataset records, trace events, billing charges, the store's
// ref journal. One encoder loop and one splitter (blank lines skipped,
// malformed lines reported with their 1-based number) instead of a
// drifting copy per package.
//
// The codec is built for the store hot path, where the wire forms are
// encoded and decoded hundreds of times per study:
//
//   - The two hot record types, dataset records and trace events, carry
//     hand-written fixed-field codecs (AppendJSONL and UnmarshalJSONL
//     methods built on this package's field primitives; see Object).
//     They write exactly the bytes json.Encoder writes and decode a
//     strict subset of what json.Unmarshal accepts, with no reflection.
//     Every other type goes through encoding/json.
//   - Marshal encodes through a pooled buffer (sync.Pool) and returns
//     one right-sized copy, so repeated megabyte encodes stop paying
//     the doubling-growth allocations.
//   - Unmarshal slices the input in place (no bufio.Scanner, no copy of
//     any line, no fixed 1 MiB scratch buffer), preallocates the result
//     from a newline count and decodes each line straight into its
//     slot, so decoding allocates the output slice once plus what each
//     record's strings need (for the hand-written codecs, repeated
//     small-set strings are interned per decode).
//   - Decoder is the streaming form: records decode one at a time
//     through a cursor, which is what lets the executor's units→env
//     merge consume stored draws without materializing an intermediate
//     record slice per artifact.
package jsonl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
)

// encBufs pools encode buffers across Marshal calls. Buffers that grew
// past maxPooledBuf are dropped on the floor rather than pinned forever.
var encBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBuf caps the capacity a returned pool buffer may retain
// (16 MiB — comfortably above the largest study artifact, small enough
// that one outlier encode cannot pin tens of megabytes).
const maxPooledBuf = 16 << 20

// Marshal encodes items as JSON lines, one per item, in order. The
// returned slice is exactly sized and owned by the caller; the encode
// scratch is pooled across calls. A type whose pointer has an
// AppendJSONL method appends each line straight into the pooled buffer;
// any other type goes through json.Encoder.
func Marshal[T any](items []T) ([]byte, error) {
	if _, ok := any((*T)(nil)).(lineAppender); ok {
		return MarshalEach(len(items), func(b []byte, i int) ([]byte, error) {
			return any(&items[i]).(lineAppender).AppendJSONL(b)
		})
	}
	buf := getBuf()
	defer putBuf(buf)
	enc := json.NewEncoder(buf)
	for i := range items {
		if err := enc.Encode(items[i]); err != nil {
			return nil, err
		}
	}
	return copyOut(buf), nil
}

// MarshalEach encodes n lines, in order, through the pooled buffer:
// appendLine appends line i, without its newline, to b and returns the
// extended slice. It is Marshal for a caller that encodes straight from
// its live records, with no slice of wire values staged first. The
// returned slice is exactly sized and owned by the caller.
func MarshalEach(n int, appendLine func(b []byte, i int) ([]byte, error)) ([]byte, error) {
	buf := getBuf()
	defer putBuf(buf)
	for i := 0; i < n; i++ {
		b, err := appendLine(buf.AvailableBuffer(), i)
		if err != nil {
			return nil, err
		}
		buf.Write(append(b, '\n'))
	}
	return copyOut(buf), nil
}

// copyOut returns an exactly sized copy of the buffer's bytes.
func copyOut(buf *bytes.Buffer) []byte {
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out
}

func getBuf() *bytes.Buffer {
	buf := encBufs.Get().(*bytes.Buffer)
	buf.Reset()
	return buf
}

// putBuf returns a buffer to the pool unless it grew past maxPooledBuf.
func putBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBuf {
		buf.Reset()
		encBufs.Put(buf)
	}
}

// Unmarshal decodes JSON lines into values of T. Blank lines are
// skipped; a malformed line fails with its 1-based line number prefixed
// by errPrefix (the owning package's name). The input is split in place
// — no per-line copies, no scratch buffer — and the output slice is
// preallocated from a newline count, so a second growth allocation
// never happens. Each line decodes straight into its output slot.
func Unmarshal[T any](errPrefix string, data []byte) ([]T, error) {
	var out []T
	if n := Lines(data); n > 0 {
		out = make([]T, 0, n)
	}
	d := NewDecoder[T](errPrefix, data)
	for {
		line, ok := d.nextLine()
		if !ok {
			return out, nil
		}
		var zero T
		out = append(out, zero)
		if err := d.decode(&out[len(out)-1], line); err != nil {
			return nil, err
		}
	}
}

// Lines counts the newline-terminated lines of data (a trailing
// unterminated line counts as one). It is the preallocation hint
// Unmarshal sizes its output with — an upper bound when blank lines are
// present, exact otherwise.
func Lines(data []byte) int {
	n := bytes.Count(data, []byte{'\n'})
	if len(data) > 0 && data[len(data)-1] != '\n' {
		n++
	}
	return n
}

// Decoder is a streaming cursor over a JSON-lines byte slice: each Next
// decodes exactly one record, in order, without materializing the whole
// record set. The executor's store-warm unit path consumes draw records
// through one of these instead of holding every artifact's full decoded
// slice in memory simultaneously.
type Decoder[T any] struct {
	prefix string
	rest   []byte
	line   int
	obj    Object // the hand-written codecs' reader, kept across lines
	slot   T      // Next decodes here, so no record escapes per line
}

// NewDecoder returns a cursor over data. The decoder keeps a reference
// to data (it slices, never copies); the caller must not mutate it
// while decoding.
func NewDecoder[T any](errPrefix string, data []byte) *Decoder[T] {
	return &Decoder[T]{prefix: errPrefix, rest: data}
}

// Next decodes the next record. It returns ok=false when the input is
// exhausted; a malformed line fails with its 1-based line number.
func (d *Decoder[T]) Next() (v T, ok bool, err error) {
	line, ok := d.nextLine()
	if !ok {
		return v, false, nil
	}
	d.slot = v
	if err := d.decode(&d.slot, line); err != nil {
		return v, false, err
	}
	return d.slot, true, nil
}

// nextLine returns the next non-blank line, counting every line it
// passes.
func (d *Decoder[T]) nextLine() ([]byte, bool) {
	for len(d.rest) > 0 {
		line := d.rest
		if i := bytes.IndexByte(d.rest, '\n'); i >= 0 {
			line, d.rest = d.rest[:i], d.rest[i+1:]
		} else {
			d.rest = nil
		}
		d.line++
		if len(bytes.TrimSpace(line)) != 0 {
			return line, true
		}
	}
	return nil, false
}

// decode decodes one line into *p: through the type's UnmarshalJSONL
// when *T has one, else through json.Unmarshal.
func (d *Decoder[T]) decode(p *T, line []byte) error {
	var err error
	if u, ok := any(p).(lineUnmarshaler); ok {
		d.obj.reset(line)
		err = u.UnmarshalJSONL(&d.obj)
	} else {
		err = json.Unmarshal(line, p)
	}
	if err != nil {
		return fmt.Errorf("%s: line %d: %w", d.prefix, d.line, err)
	}
	return nil
}
