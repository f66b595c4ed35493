package snapfile

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// Enc is an append-based little-endian payload encoder for section contents.
// It has no failure modes; the resulting []byte goes into Writer.Add.
type Enc struct {
	buf []byte
}

// NewEnc returns an encoder with the given capacity hint.
func NewEnc(capHint int) *Enc { return &Enc{buf: make([]byte, 0, capHint)} }

// Bytes returns the encoded payload.
func (e *Enc) Bytes() []byte { return e.buf }

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a bool as one byte (0 or 1).
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U16 appends a little-endian uint16.
func (e *Enc) U16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }

// U32 appends a little-endian uint32.
func (e *Enc) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a little-endian uint64.
func (e *Enc) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends a little-endian int64.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// F64 appends a little-endian IEEE 754 float64.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Str appends a uint32 length followed by the raw bytes.
func (e *Enc) Str(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// StrSlice appends a uint32 count followed by each string.
func (e *Enc) StrSlice(ss []string) {
	e.U32(uint32(len(ss)))
	for _, s := range ss {
		e.Str(s)
	}
}

// StrSlice2 appends a slice of string slices.
func (e *Enc) StrSlice2(ss [][]string) {
	e.U32(uint32(len(ss)))
	for _, s := range ss {
		e.StrSlice(s)
	}
}

// Dec is a sticky-error little-endian payload decoder. After the first
// failure every subsequent read returns a zero value and Err() keeps the
// original typed error, so call sites read whole records linearly and check
// once at the end.
type Dec struct {
	buf []byte
	off int
	err error
	zc  bool
}

// NewDec returns a decoder over a section payload.
func NewDec(payload []byte) *Dec { return &Dec{buf: payload} }

// NewDecZeroCopy returns a decoder whose Str results alias the payload
// instead of copying it. The caller must guarantee the payload bytes stay
// reachable and unmodified for as long as any decoded string is in use —
// the contract LoadSnapshot already imposes for the float sections it views.
func NewDecZeroCopy(payload []byte) *Dec { return &Dec{buf: payload, zc: true} }

// Err returns the first decode failure, or nil. All failures wrap
// ErrCorrupt.
func (d *Dec) Err() error { return d.err }

// Remaining returns the number of unread bytes (0 once an error is sticky).
func (d *Dec) Remaining() int {
	if d.err != nil {
		return 0
	}
	return len(d.buf) - d.off
}

// Done returns d.err, or ErrCorrupt when unread bytes remain — records must
// consume their payload exactly.
func (d *Dec) Done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d trailing bytes after record", ErrCorrupt, len(d.buf)-d.off)
	}
	return nil
}

func (d *Dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: short payload reading %s at offset %d of %d", ErrCorrupt, what, d.off, len(d.buf))
	}
}

func (d *Dec) take(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.buf)-d.off {
		d.fail(what)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	b := d.take(1, "u8")
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a one-byte bool; any value other than 0 or 1 is corrupt.
func (d *Dec) Bool() bool {
	v := d.U8()
	if v > 1 && d.err == nil {
		d.err = fmt.Errorf("%w: bool byte %d", ErrCorrupt, v)
	}
	return v == 1
}

// U32 reads a little-endian uint32.
func (d *Dec) U32() uint32 {
	b := d.take(4, "u32")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Dec) U64() uint64 {
	b := d.take(8, "u64")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// F64 reads a little-endian IEEE 754 float64.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Count reads a uint32 element count and bounds it against the remaining
// payload assuming each element occupies at least minBytesPer bytes. A bogus
// huge count from a corrupt file therefore fails here instead of sizing a
// giant allocation.
func (d *Dec) Count(minBytesPer int) int {
	n := d.U32()
	if d.err != nil {
		return 0
	}
	if minBytesPer < 1 {
		minBytesPer = 1
	}
	if int64(n)*int64(minBytesPer) > int64(d.Remaining()) {
		d.err = fmt.Errorf("%w: count %d exceeds %d remaining bytes", ErrCorrupt, n, d.Remaining())
		return 0
	}
	return int(n)
}

// Str reads a length-prefixed string. In zero-copy mode the result aliases
// the payload; otherwise it is an independent copy. The prefix and the bytes
// are consumed in one fused bounds check — Str dominates IR decoding.
func (d *Dec) Str() string {
	if d.err != nil {
		return ""
	}
	rem := len(d.buf) - d.off
	if rem < 4 {
		d.fail("string length")
		return ""
	}
	n := int(binary.LittleEndian.Uint32(d.buf[d.off:]))
	if n > rem-4 {
		d.off += 4
		d.fail("string")
		return ""
	}
	start := d.off + 4
	d.off = start + n
	if n == 0 {
		return ""
	}
	b := d.buf[start : start+n]
	if d.zc {
		return unsafe.String(&b[0], n)
	}
	return string(b)
}

// StrSlice reads a count-prefixed string slice (nil for count 0, matching
// the natural Go zero value round-trip).
func (d *Dec) StrSlice() []string {
	n := d.Count(4)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.Str()
	}
	return out
}

// StrArena carves string-slice headers out of pre-sized backing arrays, so
// a payload with hundreds of small string lists decodes with two
// allocations instead of one per list. Callers size it from totals the
// encoder declares in the payload; a count that exceeds the arena is
// corrupt, and a decode that leaves the arena partly unused means the
// declared totals were wrong (check with Drained).
type StrArena struct {
	Elems []string
	Lists [][]string
}

// NewStrArena returns an arena with capacity for elems strings spread over
// lists inner slices (lists only matters for StrSlice2In).
func NewStrArena(elems, lists int) *StrArena {
	return &StrArena{Elems: make([]string, elems), Lists: make([][]string, lists)}
}

// Drained reports whether every arena slot was handed out.
func (a *StrArena) Drained() bool { return len(a.Elems) == 0 && len(a.Lists) == 0 }

// StrSliceIn is StrSlice drawing the backing array from the arena.
func (d *Dec) StrSliceIn(a *StrArena) []string {
	n := d.Count(4)
	if n == 0 {
		return nil
	}
	if n > len(a.Elems) {
		if d.err == nil {
			d.err = fmt.Errorf("%w: string count %d exceeds arena of %d", ErrCorrupt, n, len(a.Elems))
		}
		return nil
	}
	out := a.Elems[:n:n]
	a.Elems = a.Elems[n:]
	for i := range out {
		out[i] = d.Str()
	}
	return out
}

// StrSlice2In reads a slice of string slices (Enc.StrSlice2's encoding),
// drawing outer and inner backing arrays from the arena.
func (d *Dec) StrSlice2In(a *StrArena) [][]string {
	n := d.Count(4)
	if n == 0 {
		return nil
	}
	if n > len(a.Lists) {
		if d.err == nil {
			d.err = fmt.Errorf("%w: list count %d exceeds arena of %d", ErrCorrupt, n, len(a.Lists))
		}
		return nil
	}
	out := a.Lists[:n:n]
	a.Lists = a.Lists[n:]
	for i := range out {
		out[i] = d.StrSliceIn(a)
	}
	return out
}
