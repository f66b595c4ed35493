// Package snapfile implements the versioned binary container behind
// ReviewSolver's on-disk snapshots (.snap files): a fixed header, a section
// table of (id, offset, length, checksum) entries, and 8-byte-aligned
// payloads that can be consumed zero-copy from the loaded (or mmapped) file
// image.
//
// Layout (all integers little-endian):
//
//	offset  0  magic   "RSNAPSF\x00" (8 bytes)
//	offset  8  version uint32 (Version)
//	offset 12  count   uint32 (number of sections)
//	offset 16  size    uint64 (total file length, for truncation detection)
//	offset 24  flags   uint32 (bit 0: float payloads are little-endian IEEE 754)
//	offset 28  reserved uint32
//	then count × 32-byte section entries:
//	        id uint32, crc uint32 (CRC-32C of the payload), offset uint64,
//	        length uint64, reserved uint64
//	then the payloads, each starting on an 8-byte boundary (zero padded).
//
// The 8-byte alignment rule means a section holding flattened float64 rows
// can be reinterpreted in place (Float64View) without a per-row copy — the
// property core.LoadSnapshot relies on to rebuild wordvec matrices in
// microseconds. The package is deliberately schema-free: section IDs and
// payload encodings (see Enc/Dec) belong to the caller, so the same
// container serves the fingerprints, the app IR and the per-release
// extractions.
//
// Versioning policy: any change to the header, the section-entry shape, or
// the meaning of an existing section ID bumps Version; readers reject files
// whose version they do not know (ErrVersion) rather than guessing.
package snapfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"unsafe"
)

// Version is the current snapshot container format version. Version 2
// retired two section families core wrote under version 1 (quantized scan
// tiers and delta images). Version 3 retired the process-wide tables core
// wrote into every version 2 image (the interner symbol table and the
// framework-catalog table), which a loader now checks by checksum only.
// Every older file is rejected with ErrVersion and must be recompiled.
const Version = 3

// flagLittleEndian marks float payloads as little-endian IEEE 754. It is
// the only layout today; the flag exists so a future big-endian writer is
// detectable instead of silently misread.
const flagLittleEndian = 1

const (
	headerSize       = 32
	sectionEntrySize = 32
	align            = 8
)

var magic = [8]byte{'R', 'S', 'N', 'A', 'P', 'S', 'F', 0}

// Typed load errors. Callers match them with errors.Is; every corrupt input
// maps to exactly one of these (never a panic).
var (
	// ErrBadMagic reports a file that is not a snapshot at all.
	ErrBadMagic = errors.New("snapfile: bad magic")
	// ErrVersion reports a snapshot written by an unknown format version.
	ErrVersion = errors.New("snapfile: unsupported format version")
	// ErrTruncated reports a file shorter than its header and section table
	// claim.
	ErrTruncated = errors.New("snapfile: truncated file")
	// ErrChecksum reports a section whose payload does not match its CRC.
	ErrChecksum = errors.New("snapfile: section checksum mismatch")
	// ErrMisaligned reports a section offset off the 8-byte grid.
	ErrMisaligned = errors.New("snapfile: misaligned section offset")
	// ErrCorrupt reports structurally invalid content: duplicate section
	// IDs, section payloads that decode out of bounds, or impossible shapes.
	ErrCorrupt = errors.New("snapfile: corrupt section")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC-32C used for section payloads, exported so callers
// can fingerprint payloads they embed (vocabulary tables, catalogs) with
// the same function the container uses.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// --- writer ---------------------------------------------------------------------

// Writer assembles a snapshot file. Sections are emitted in Add order, so a
// deterministic caller produces byte-identical files.
type Writer struct {
	ids      []uint32
	payloads [][]byte
}

// NewWriter returns an empty snapshot writer.
func NewWriter() *Writer { return &Writer{} }

// Add appends one section. Adding a duplicate ID is a programming error and
// panics (readers reject such files anyway).
func (w *Writer) Add(id uint32, payload []byte) {
	for _, have := range w.ids {
		if have == id {
			panic(fmt.Sprintf("snapfile: duplicate section id %#x", id))
		}
	}
	w.ids = append(w.ids, id)
	w.payloads = append(w.payloads, payload)
}

// Bytes assembles the file image.
func (w *Writer) Bytes() []byte {
	tableEnd := headerSize + sectionEntrySize*len(w.ids)
	offsets := make([]uint64, len(w.ids))
	size := pad8(tableEnd)
	for i, p := range w.payloads {
		offsets[i] = uint64(size)
		size = pad8(size + len(p))
	}
	out := make([]byte, size)
	copy(out, magic[:])
	le := binary.LittleEndian
	le.PutUint32(out[8:], Version)
	le.PutUint32(out[12:], uint32(len(w.ids)))
	le.PutUint64(out[16:], uint64(size))
	le.PutUint32(out[24:], flagLittleEndian)
	for i, id := range w.ids {
		e := out[headerSize+sectionEntrySize*i:]
		le.PutUint32(e[0:], id)
		le.PutUint32(e[4:], Checksum(w.payloads[i]))
		le.PutUint64(e[8:], offsets[i])
		le.PutUint64(e[16:], uint64(len(w.payloads[i])))
		copy(out[offsets[i]:], w.payloads[i])
	}
	return out
}

func pad8(n int) int { return (n + align - 1) &^ (align - 1) }

// --- reader ---------------------------------------------------------------------

// Reader is a validated snapshot image. Section payloads alias the backing
// byte slice — they are views, not copies — so the caller must treat them
// as read-only for the reader's lifetime.
type Reader struct {
	data  []byte
	ids   []uint32
	spans [][]byte
}

// OpenFile reads and validates a snapshot file.
func OpenFile(path string) (*Reader, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Open(data)
}

// Open validates a snapshot image: magic, version, declared size, and for
// every section its alignment, bounds, and checksum. All failure modes are
// typed errors; Open never panics on hostile input.
func Open(data []byte) (*Reader, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrTruncated, len(data), headerSize)
	}
	if [8]byte(data[:8]) != magic {
		return nil, fmt.Errorf("%w: got % x", ErrBadMagic, data[:8])
	}
	le := binary.LittleEndian
	if v := le.Uint32(data[8:]); v != Version {
		return nil, fmt.Errorf("%w: file version %d, reader supports %d", ErrVersion, v, Version)
	}
	if flags := le.Uint32(data[24:]); flags&flagLittleEndian == 0 {
		return nil, fmt.Errorf("%w: big-endian float payloads are not supported", ErrVersion)
	}
	if !hostLittleEndian() {
		return nil, fmt.Errorf("%w: big-endian hosts are not supported", ErrVersion)
	}
	count := int(le.Uint32(data[12:]))
	if size := le.Uint64(data[16:]); size != uint64(len(data)) {
		return nil, fmt.Errorf("%w: header declares %d bytes, file has %d", ErrTruncated, size, len(data))
	}
	tableEnd := headerSize + sectionEntrySize*count
	if count < 0 || tableEnd > len(data) {
		return nil, fmt.Errorf("%w: section table for %d sections exceeds the file", ErrTruncated, count)
	}
	r := &Reader{data: data, ids: make([]uint32, 0, count), spans: make([][]byte, 0, count)}
	seen := make(map[uint32]struct{}, count)
	for i := 0; i < count; i++ {
		e := data[headerSize+sectionEntrySize*i:]
		id := le.Uint32(e[0:])
		crc := le.Uint32(e[4:])
		off := le.Uint64(e[8:])
		length := le.Uint64(e[16:])
		if _, dup := seen[id]; dup {
			return nil, fmt.Errorf("%w: duplicate section id %#x", ErrCorrupt, id)
		}
		seen[id] = struct{}{}
		if off%align != 0 {
			return nil, fmt.Errorf("%w: section %#x at offset %d", ErrMisaligned, id, off)
		}
		if off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, fmt.Errorf("%w: section %#x spans [%d, %d) beyond %d bytes",
				ErrTruncated, id, off, off+length, len(data))
		}
		payload := data[off : off+length : off+length]
		if got := Checksum(payload); got != crc {
			return nil, fmt.Errorf("%w: section %#x crc %#08x, want %#08x", ErrChecksum, id, got, crc)
		}
		r.ids = append(r.ids, id)
		r.spans = append(r.spans, payload)
	}
	return r, nil
}

// Section returns the payload of the section with the given ID.
func (r *Reader) Section(id uint32) ([]byte, bool) {
	for i, have := range r.ids {
		if have == id {
			return r.spans[i], true
		}
	}
	return nil, false
}

// MustSection is Section returning ErrCorrupt when the section is absent —
// the common case for schema-required sections.
func (r *Reader) MustSection(id uint32) ([]byte, error) {
	if p, ok := r.Section(id); ok {
		return p, nil
	}
	return nil, fmt.Errorf("%w: missing section %#x", ErrCorrupt, id)
}

// SectionCount returns the number of sections in the file.
func (r *Reader) SectionCount() int { return len(r.ids) }

func hostLittleEndian() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

// --- zero-copy float blocks ------------------------------------------------------

// Float64View reinterprets a section payload as a []float64 without copying
// when the payload is 8-byte aligned in memory (it always is for payloads
// handed out by Reader over a heap-allocated or mmapped image); a misaligned
// slice falls back to one copy. The length must be a multiple of 8 bytes.
func Float64View(b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("%w: float block of %d bytes is not a multiple of 8", ErrCorrupt, len(b))
	}
	if len(b) == 0 {
		return nil, nil
	}
	if uintptr(unsafe.Pointer(&b[0]))%align == 0 {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8), nil
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, nil
}

// Float64Bytes views a []float64 as its underlying bytes for writing. The
// returned slice aliases f; callers must not mutate it.
func Float64Bytes(f []float64) []byte {
	if len(f) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&f[0])), 8*len(f))
}
