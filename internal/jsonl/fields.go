package jsonl

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// Field primitives for the hand-written codecs. A record type opts out
// of encoding/json reflection by giving *T two methods:
//
//	AppendJSONL(b []byte) ([]byte, error) // one line, no newline
//	UnmarshalJSONL(o *Object) error       // one line, field by field
//
// Marshal, Unmarshal and Decoder call them when *T has them, and Decode
// calls the second for a file that holds a single object. The JSON
// format rules those methods need live here, so every codec writes the
// bytes encoding/json writes and reads with one set of strictness rules.

// lineAppender is the encode half of a hand-written line codec.
type lineAppender interface {
	AppendJSONL(b []byte) ([]byte, error)
}

// lineUnmarshaler is the decode half of a hand-written line codec.
type lineUnmarshaler interface {
	UnmarshalJSONL(o *Object) error
}

const hexDigits = "0123456789abcdef"

// htmlSafe marks the ASCII bytes json.Encoder writes unescaped by
// default: printable characters other than '"', '\\', '<', '>' and '&'.
var htmlSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return safe
}()

// AppendString appends s as a JSON string, escaped exactly as
// json.Encoder escapes it by default: '"' and '\\' backslashed, \b \f
// \n \r \t by name, other control characters and the HTML-sensitive
// '<', '>' and '&' as \u00XX, U+2028 and U+2029 as \u2028 and \u2029,
// and each byte of invalid UTF-8 as \ufffd.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// AppendFloat appends f as json.Encoder writes a float64, which is
// ECMAScript's number formatting: the shortest decimal that round-trips,
// in 'f' form for magnitudes in [1e-6, 1e21) and zero, otherwise in 'e'
// form with a single-digit negative exponent unpadded (1e-7, not
// 1e-07). NaN and the infinities have no JSON form and are errors.
func AppendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, fmt.Errorf("jsonl: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// AppendStringMap appends m as json.Marshal writes a map[string]string:
// null for a nil map, else an object with its keys in byte order, keys
// and values escaped as AppendString escapes them.
func AppendStringMap(b []byte, m map[string]string) []byte {
	if m == nil {
		return append(b, "null"...)
	}
	var small [8]string
	keys := small[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = AppendString(b, k)
		b = append(b, ':')
		b = AppendString(b, m[k])
	}
	return append(b, '}')
}

// Object reads one JSON object, whose values are strings, numbers and
// (through Next, Elem, Null and StringMap) nested objects, arrays and
// null, for a type's UnmarshalJSONL method:
//
//	for o.Next() {
//		switch string(o.Key()) {
//		case "name":
//			v.Name = o.Text()
//		case "n":
//			v.N = o.Int()
//		default:
//			o.UnknownKey()
//		}
//	}
//	return o.Err()
//
// A member whose value is an object is read by a nested loop of Next on
// the same Object; one whose value is an array by a loop of Elem, each
// element then read like a member's value.
//
// It accepts a subset of what json.Unmarshal accepts, and on every input
// it accepts the two decode equal values. Outside the subset are
// unknown keys (including the case variants json folds onto a field),
// field names written with escapes, booleans, null and nested values
// where the caller reads none, invalid UTF-8, unpaired surrogate
// escapes, numbers out of their field's range, and anything but
// whitespace after the closing brace. Number grammar is checked before
// strconv parses a value, so strconv's own extensions (a leading '+',
// "Inf", hex, underscores) never get through.
//
// The first error sticks: Next reports false and the value readers
// return zero from then on, so the caller checks Err once at the end.
// Duplicate keys decode in order, the last one winning, as in
// encoding/json.
type Object struct {
	line  []byte
	pos   int
	key   []byte
	keyAt int // offset of the key's opening quote
	err   error
	// depth counts the open objects and arrays; pending reports that the
	// reader sits on a value nobody has read yet (the whole input, at
	// first).
	depth   int
	pending bool

	buf  []byte            // unescape scratch, reused across lines
	syms map[string]string // Symbol's intern table, kept for one decode
}

// reset points the reader at a new line, keeping the scratch buffer and
// the intern table.
func (o *Object) reset(line []byte) {
	o.line, o.pos, o.key, o.err = line, 0, nil, nil
	o.depth, o.pending = 0, true
}

// Decode reads data, which holds one JSON object, into v through its
// UnmarshalJSONL method, as strictly as a line (see Object): the
// one-object form of Decoder, for a file such as a manifest.
func Decode(data []byte, v lineUnmarshaler) error {
	var o Object
	o.reset(data)
	return v.UnmarshalJSONL(&o)
}

// Err returns the first error the line produced, or nil.
func (o *Object) Err() error { return o.err }

// Key returns the current member's key: its raw bytes, which never
// match a field name when they hold an escape.
func (o *Object) Key() []byte { return o.key }

// UnknownKey fails the line on the current key. UnmarshalJSONL methods
// call it from their switch's default case.
func (o *Object) UnknownKey() {
	if o.err == nil {
		o.err = fmt.Errorf("unknown key %q", o.key)
	}
}

// RepeatedKey fails the line on the current key, for a member whose
// value is an array of objects: encoding/json decodes a repeated one
// into the first one's elements, merging them field by field, which a
// strict decoder refuses rather than copies.
func (o *Object) RepeatedKey() {
	if o.err == nil {
		o.err = fmt.Errorf("repeated key %q", o.key)
	}
}

// fail records the first error, at byte offset at of the line, and
// returns false so readers can fail and return in one statement.
func (o *Object) fail(at int, msg string) bool {
	if o.err == nil {
		o.err = fmt.Errorf("%s at offset %d", msg, at)
	}
	return false
}

func (o *Object) skipSpace() {
	for o.pos < len(o.line) {
		switch o.line[o.pos] {
		case ' ', '\t', '\r', '\n':
			o.pos++
		default:
			return
		}
	}
}

// Next advances to the next member and reports whether there is one;
// the reader then sits on the member's value, which the caller must
// read (or reject with UnknownKey) before calling Next again. Called on
// an unread value, Next opens it as an object and advances to its first
// member. Next returns false at the object's closing brace and on any
// error.
func (o *Object) Next() bool {
	if o.err != nil {
		return false
	}
	o.skipSpace()
	if o.pending {
		if o.pos >= len(o.line) || o.line[o.pos] != '{' {
			return o.fail(o.pos, "expected '{'")
		}
		o.depth++
		o.pending = false
		o.pos++
		o.skipSpace()
		if o.pos < len(o.line) && o.line[o.pos] == '}' {
			return o.close()
		}
	} else {
		if o.pos < len(o.line) && o.line[o.pos] == '}' {
			return o.close()
		}
		if o.pos >= len(o.line) || o.line[o.pos] != ',' {
			return o.fail(o.pos, "expected ',' or '}'")
		}
		o.pos++
		o.skipSpace()
	}
	if o.pos >= len(o.line) || o.line[o.pos] != '"' {
		return o.fail(o.pos, "expected a key")
	}
	end := o.pos + 1
	for end < len(o.line) && o.line[end] != '"' {
		if o.line[end] == '\\' {
			end++
		}
		end++
	}
	if end >= len(o.line) {
		return o.fail(o.pos, "unterminated key")
	}
	o.keyAt, o.key = o.pos, o.line[o.pos+1:end]
	o.pos = end + 1
	o.skipSpace()
	if o.pos >= len(o.line) || o.line[o.pos] != ':' {
		return o.fail(o.pos, "expected ':'")
	}
	o.pos++
	o.skipSpace()
	o.pending = true
	return true
}

// Elem advances to the next element of the array the reader sits on and
// reports whether there is one; the reader then sits on the element,
// which the caller reads like a member's value before calling Elem
// again. Elem returns false at the array's closing bracket and on any
// error.
func (o *Object) Elem() bool {
	if o.err != nil {
		return false
	}
	o.skipSpace()
	if o.pending {
		if o.pos >= len(o.line) || o.line[o.pos] != '[' {
			return o.fail(o.pos, "expected '['")
		}
		o.depth++
		o.pos++
		o.skipSpace()
		if o.pos < len(o.line) && o.line[o.pos] == ']' {
			o.pending = false
			return o.close()
		}
		return true
	}
	if o.pos < len(o.line) && o.line[o.pos] == ']' {
		return o.close()
	}
	if o.pos >= len(o.line) || o.line[o.pos] != ',' {
		return o.fail(o.pos, "expected ',' or ']'")
	}
	o.pos++
	o.skipSpace()
	o.pending = true
	return true
}

// close consumes the closing brace or bracket of the innermost open
// value; after the outermost one only whitespace may follow.
func (o *Object) close() bool {
	o.pos++
	o.depth--
	if o.depth == 0 {
		o.skipSpace()
		if o.pos != len(o.line) {
			o.fail(o.pos, "data after the closing brace")
		}
	}
	return false
}

// Null reports whether the current value is null, and reads it if so.
func (o *Object) Null() bool {
	if o.err != nil || !o.pending || !bytes.HasPrefix(o.line[o.pos:], []byte("null")) {
		return false
	}
	o.pos += len("null")
	o.pending = false
	return true
}

// StringMap reads the current value, an object of strings, into m as
// json.Unmarshal fills a map[string]string: it makes m when m is nil
// (so {} reads as an empty map, not nil) and adds every member, the last
// of a repeated key winning. Its keys are read as strings are, escapes
// and all.
func (o *Object) StringMap(m map[string]string) map[string]string {
	if m == nil {
		m = make(map[string]string)
	}
	for o.Next() {
		k := o.keyText()
		if v := o.Text(); o.err == nil {
			m[k] = v
		}
	}
	return m
}

// keyText reads the current key as a string value, escapes decoded.
func (o *Object) keyText() string {
	pos := o.pos
	o.pos = o.keyAt
	k, _ := o.str() // a failure sticks in o.err
	o.pos, o.pending = pos, true
	return string(k)
}

// Text reads the current value as a string.
func (o *Object) Text() string {
	s, ok := o.str()
	if !ok {
		return ""
	}
	return string(s)
}

// Symbol reads the current value as a string from a small set (an
// environment key, a unit, a category). Equal values read by one
// Decoder share one allocation.
func (o *Object) Symbol() string {
	s, ok := o.str()
	if !ok {
		return ""
	}
	if v, ok := o.syms[string(s)]; ok {
		return v
	}
	if o.syms == nil {
		o.syms = make(map[string]string)
	}
	v := string(s)
	o.syms[v] = v
	return v
}

// str reads a string value and returns its decoded bytes: a subslice of
// the line when the string holds no escape, else the scratch buffer.
func (o *Object) str() ([]byte, bool) {
	if o.err != nil {
		return nil, false
	}
	line, i := o.line, o.pos
	if i >= len(line) || line[i] != '"' {
		return nil, o.fail(i, "expected a string")
	}
	i++
	start, ascii := i, true
	for ; i < len(line); i++ {
		switch c := line[i]; {
		case c == '"':
			s := line[start:i]
			if !ascii && !utf8.Valid(s) {
				return nil, o.fail(start, "invalid UTF-8 in string")
			}
			o.pos, o.pending = i+1, false
			return s, true
		case c == '\\':
			return o.unescape(start, i)
		case c < ' ':
			return nil, o.fail(i, "control character in string")
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, o.fail(start-1, "unterminated string")
}

// unescape is str's slow path, for a string starting at line[start]
// whose first escape is at line[i]. It decodes escapes as encoding/json
// does, except that an unpaired surrogate is an error rather than
// U+FFFD. Escapes only ever write ASCII or whole UTF-8 sequences, so
// validating the decoded bytes once validates the raw bytes around them.
func (o *Object) unescape(start, i int) ([]byte, bool) {
	line := o.line
	b := append(o.buf[:0], line[start:i]...)
	for i < len(line) {
		c := line[i]
		switch {
		case c == '"':
			o.buf = b
			if !utf8.Valid(b) {
				return nil, o.fail(start, "invalid UTF-8 in string")
			}
			o.pos, o.pending = i+1, false
			return b, true
		case c < ' ':
			return nil, o.fail(i, "control character in string")
		case c != '\\':
			j := i + 1
			for j < len(line) && line[j] != '"' && line[j] != '\\' && line[j] >= ' ' {
				j++
			}
			b = append(b, line[i:j]...)
			i = j
			continue
		}
		if i+1 >= len(line) {
			break
		}
		switch e := line[i+1]; e {
		case '"', '\\', '/':
			b = append(b, e)
		case 'b':
			b = append(b, '\b')
		case 'f':
			b = append(b, '\f')
		case 'n':
			b = append(b, '\n')
		case 'r':
			b = append(b, '\r')
		case 't':
			b = append(b, '\t')
		case 'u':
			r, ok := hex4(line[i+2:])
			if !ok {
				return nil, o.fail(i, `invalid \u escape`)
			}
			if utf16.IsSurrogate(r) {
				r2, ok := rune(0), false
				if i+7 < len(line) && line[i+6] == '\\' && line[i+7] == 'u' {
					r2, ok = hex4(line[i+8:])
				}
				if r = utf16.DecodeRune(r, r2); !ok || r == utf8.RuneError {
					return nil, o.fail(i, "unpaired surrogate escape")
				}
				i += 6
			}
			b = utf8.AppendRune(b, r)
			i += 6
			continue
		default:
			return nil, o.fail(i, "invalid escape")
		}
		i += 2
	}
	o.buf = b
	return nil, o.fail(start-1, "unterminated string")
}

// hex4 decodes the four hex digits a \u escape carries.
func hex4(s []byte) (rune, bool) {
	if len(s) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range s[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// number reads a number value's bytes, enforcing JSON's grammar: an
// optional '-', then 0 or digits without a leading zero, an optional
// fraction and an optional exponent, each with at least one digit.
// integer reports that there was neither a fraction nor an exponent.
func (o *Object) number() (num []byte, integer, ok bool) {
	if o.err != nil {
		return nil, false, false
	}
	line, i := o.line, o.pos
	digits := func(i int) int {
		for i < len(line) && '0' <= line[i] && line[i] <= '9' {
			i++
		}
		return i
	}
	if i < len(line) && line[i] == '-' {
		i++
	}
	switch {
	case i < len(line) && line[i] == '0':
		i++
	case i < len(line) && '1' <= line[i] && line[i] <= '9':
		i = digits(i)
	default:
		return nil, false, o.fail(o.pos, "expected a number")
	}
	integer = true
	if i < len(line) && line[i] == '.' {
		j := digits(i + 1)
		if j == i+1 {
			return nil, false, o.fail(o.pos, "malformed number")
		}
		i, integer = j, false
	}
	if i < len(line) && (line[i] == 'e' || line[i] == 'E') {
		i++
		if i < len(line) && (line[i] == '+' || line[i] == '-') {
			i++
		}
		j := digits(i)
		if j == i {
			return nil, false, o.fail(o.pos, "malformed number")
		}
		i, integer = j, false
	}
	num, o.pos, o.pending = line[o.pos:i], i, false
	return num, integer, true
}

// integerBytes reads an integer value's bytes and the offset they
// start at, as json.Unmarshal reads one into a Go integer field: no
// fraction, no exponent.
func (o *Object) integerBytes() (num []byte, at int, ok bool) {
	at = o.pos
	num, integer, ok := o.number()
	if ok && !integer {
		return nil, at, o.fail(at, "expected an integer")
	}
	return num, at, ok
}

// integer reads an integer value that fits in bits.
func (o *Object) integer(bits int) int64 {
	num, at, ok := o.integerBytes()
	if !ok {
		return 0
	}
	n, err := strconv.ParseInt(string(num), 10, bits)
	if err != nil {
		o.fail(at, "integer out of range")
		return 0
	}
	return n
}

// Int reads the current value as an int.
func (o *Object) Int() int { return int(o.integer(strconv.IntSize)) }

// Int64 reads the current value as an int64.
func (o *Object) Int64() int64 { return o.integer(64) }

// Uint64 reads the current value as a uint64: an integer without a
// sign, as json.Unmarshal reads one into a uint64 field.
func (o *Object) Uint64() uint64 {
	num, at, ok := o.integerBytes()
	if !ok {
		return 0
	}
	n, err := strconv.ParseUint(string(num), 10, 64)
	if err != nil {
		o.fail(at, "integer out of range")
		return 0
	}
	return n
}

// Float reads the current value as a float64; a number beyond float64's
// range is an error, as it is for json.Unmarshal.
func (o *Object) Float() float64 {
	at := o.pos
	num, _, ok := o.number()
	if !ok {
		return 0
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		o.fail(at, "number out of range")
		return 0
	}
	return f
}
