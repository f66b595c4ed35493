package snapfile

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// sample builds a small two-section file image for corruption tests.
func sample(t *testing.T) []byte {
	t.Helper()
	w := NewWriter()
	e := NewEnc(64)
	e.Str("hello")
	e.U32(7)
	e.StrSlice([]string{"a", "bb", "ccc"})
	w.Add(1, e.Bytes())
	w.Add(2, Float64Bytes([]float64{1, 0.5, -0.25, math.Pi}))
	return w.Bytes()
}

func TestRoundTrip(t *testing.T) {
	img := sample(t)
	r, err := Open(img)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if r.SectionCount() != 2 || r.Len() != len(img) {
		t.Fatalf("got %d sections / %d bytes", r.SectionCount(), r.Len())
	}
	p, err := r.MustSection(1)
	if err != nil {
		t.Fatalf("MustSection(1): %v", err)
	}
	d := NewDec(p)
	if s := d.Str(); s != "hello" {
		t.Errorf("Str = %q", s)
	}
	if v := d.U32(); v != 7 {
		t.Errorf("U32 = %d", v)
	}
	if ss := d.StrSlice(); len(ss) != 3 || ss[2] != "ccc" {
		t.Errorf("StrSlice = %v", ss)
	}
	if err := d.Done(); err != nil {
		t.Errorf("Done: %v", err)
	}
	fp, err := r.MustSection(2)
	if err != nil {
		t.Fatalf("MustSection(2): %v", err)
	}
	fs, err := Float64View(fp)
	if err != nil {
		t.Fatalf("Float64View: %v", err)
	}
	if len(fs) != 4 || fs[3] != math.Pi {
		t.Errorf("floats = %v", fs)
	}
	if _, ok := r.Section(99); ok {
		t.Error("Section(99) unexpectedly present")
	}
	if _, err := r.MustSection(99); !errors.Is(err, ErrCorrupt) {
		t.Errorf("MustSection(99) = %v, want ErrCorrupt", err)
	}
}

func TestWriteFileDeterministic(t *testing.T) {
	a, b := sample(t), sample(t)
	if string(a) != string(b) {
		t.Fatal("two identical builds produced different bytes")
	}
	path := filepath.Join(t.TempDir(), "x.snap")
	w := NewWriter()
	w.Add(1, []byte("payload"))
	if err := w.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, err := OpenFile(path); err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if _, err := OpenFile(filepath.Join(t.TempDir(), "missing.snap")); err == nil {
		t.Fatal("OpenFile on a missing path succeeded")
	}
}

// TestOpenCorrupt is the table-driven corrupt-input matrix the satellite
// asks for: every mutation must surface as its specific typed error, never
// a panic.
func TestOpenCorrupt(t *testing.T) {
	le := binary.LittleEndian
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"empty file", func(b []byte) []byte { return nil }, ErrTruncated},
		{"shorter than header", func(b []byte) []byte { return b[:16] }, ErrTruncated},
		{"truncated body", func(b []byte) []byte { return b[:len(b)-8] }, ErrTruncated},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, ErrBadMagic},
		{"unsupported version", func(b []byte) []byte { le.PutUint32(b[8:], Version+1); return b }, ErrVersion},
		{"version zero", func(b []byte) []byte { le.PutUint32(b[8:], 0); return b }, ErrVersion},
		{"big-endian flag", func(b []byte) []byte { le.PutUint32(b[24:], 0); return b }, ErrVersion},
		{"declared size too large", func(b []byte) []byte { le.PutUint64(b[16:], uint64(len(b)+8)); return b }, ErrTruncated},
		{"declared size too small", func(b []byte) []byte { le.PutUint64(b[16:], uint64(len(b)-8)); return b }, ErrTruncated},
		{"section table beyond file", func(b []byte) []byte {
			le.PutUint32(b[12:], 1<<20)
			return b
		}, ErrTruncated},
		{"checksum mismatch", func(b []byte) []byte { b[len(b)-9] ^= 0xff; return b }, ErrChecksum},
		{"crc field flipped", func(b []byte) []byte { b[headerSize+4] ^= 1; return b }, ErrChecksum},
		{"misaligned section offset", func(b []byte) []byte {
			off := le.Uint64(b[headerSize+8:])
			le.PutUint64(b[headerSize+8:], off+1)
			return b
		}, ErrMisaligned},
		{"section beyond file", func(b []byte) []byte {
			le.PutUint64(b[headerSize+8:], uint64(len(b)))
			le.PutUint64(b[headerSize+16:], 64)
			return b
		}, ErrTruncated},
		{"section length overflow", func(b []byte) []byte {
			le.PutUint64(b[headerSize+16:], math.MaxUint64)
			return b
		}, ErrTruncated},
		{"duplicate section id", func(b []byte) []byte {
			id := le.Uint32(b[headerSize:])
			le.PutUint32(b[headerSize+sectionEntrySize:], id)
			return b
		}, ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img := tc.mutate(sample(t))
			r, err := Open(img)
			if r != nil || err == nil {
				t.Fatalf("Open succeeded on %s", tc.name)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Open = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestDuplicateAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add with a duplicate id did not panic")
		}
	}()
	w := NewWriter()
	w.Add(1, nil)
	w.Add(1, nil)
}

func TestDecPrimitives(t *testing.T) {
	e := NewEnc(0)
	e.U8(3)
	e.Bool(true)
	e.Bool(false)
	e.I32(-5)
	e.U64(1 << 40)
	e.I64(-9)
	e.F64(2.5)
	e.StrSlice2([][]string{{"x"}, nil})
	d := NewDec(e.Bytes())
	if d.U8() != 3 || !d.Bool() || d.Bool() || d.I32() != -5 ||
		d.U64() != 1<<40 || d.I64() != -9 || d.F64() != 2.5 {
		t.Fatal("primitive round trip mismatch")
	}
	ss := d.StrSlice2()
	if len(ss) != 2 || len(ss[0]) != 1 || ss[0][0] != "x" || ss[1] != nil {
		t.Fatalf("StrSlice2 = %v", ss)
	}
	if err := d.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

func TestDecStickyErrors(t *testing.T) {
	t.Run("short payload", func(t *testing.T) {
		d := NewDec([]byte{1, 2})
		_ = d.U64()
		if !errors.Is(d.Err(), ErrCorrupt) {
			t.Fatalf("Err = %v", d.Err())
		}
		// Sticky: every later read is a zero value, no panic.
		if d.U32() != 0 || d.Str() != "" || d.StrSlice() != nil {
			t.Fatal("reads after error were not zero")
		}
		if !errors.Is(d.Done(), ErrCorrupt) {
			t.Fatal("Done lost the sticky error")
		}
	})
	t.Run("bogus count", func(t *testing.T) {
		e := NewEnc(0)
		e.U32(1 << 30)
		d := NewDec(e.Bytes())
		if n := d.Count(4); n != 0 || !errors.Is(d.Err(), ErrCorrupt) {
			t.Fatalf("Count = %d, Err = %v", n, d.Err())
		}
	})
	t.Run("string length past end", func(t *testing.T) {
		e := NewEnc(0)
		e.U32(100)
		d := NewDec(e.Bytes())
		if d.Str() != "" || !errors.Is(d.Err(), ErrCorrupt) {
			t.Fatalf("Err = %v", d.Err())
		}
	})
	t.Run("bad bool byte", func(t *testing.T) {
		d := NewDec([]byte{7})
		d.Bool()
		if !errors.Is(d.Err(), ErrCorrupt) {
			t.Fatalf("Err = %v", d.Err())
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		d := NewDec([]byte{0, 0, 0, 0, 9})
		_ = d.U32()
		if !errors.Is(d.Done(), ErrCorrupt) {
			t.Fatalf("Done = %v", d.Done())
		}
	})
}

func TestFloat64View(t *testing.T) {
	if _, err := Float64View(make([]byte, 12)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("non-multiple-of-8 view: %v", err)
	}
	v, err := Float64View(nil)
	if err != nil || v != nil {
		t.Fatalf("empty view: %v, %v", v, err)
	}
	// Aligned: zero copy (the view aliases the bytes).
	f := []float64{1, 2, 3}
	b := Float64Bytes(f)
	got, err := Float64View(b)
	if err != nil {
		t.Fatalf("aligned view: %v", err)
	}
	got[0] = 42
	if f[0] != 42 {
		t.Fatal("aligned view did not alias the source")
	}
	// Misaligned: falls back to a decode copy with identical values.
	raw := make([]byte, 8*2+1)
	binary.LittleEndian.PutUint64(raw[1:], math.Float64bits(1.5))
	binary.LittleEndian.PutUint64(raw[9:], math.Float64bits(-2.5))
	got, err = Float64View(raw[1:])
	if err != nil {
		t.Fatalf("misaligned view: %v", err)
	}
	if len(got) != 2 || got[0] != 1.5 || got[1] != -2.5 {
		t.Fatalf("misaligned view = %v", got)
	}
	if Float64Bytes(nil) != nil {
		t.Fatal("Float64Bytes(nil) != nil")
	}
}

// I32 appends a little-endian int32.
func (e *Enc) I32(v int32) { e.U32(uint32(v)) }

// I32 reads a little-endian int32.
func (d *Dec) I32() int32 { return int32(d.U32()) }

// StrSlice2 reads a slice of string slices.
func (d *Dec) StrSlice2() [][]string {
	n := d.Count(4)
	if n == 0 {
		return nil
	}
	out := make([][]string, n)
	for i := range out {
		out[i] = d.StrSlice()
	}
	return out
}

// Len returns the total file length in bytes.
func (r *Reader) Len() int { return len(r.data) }

// WriteFile assembles the image and writes it to path.
func (w *Writer) WriteFile(path string) error {
	return os.WriteFile(path, w.Bytes(), 0o644)
}
