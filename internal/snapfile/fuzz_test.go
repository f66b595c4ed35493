package snapfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
)

// fuzzSeedImage is a small but structurally complete container: several
// sections, a float payload, and an empty payload — every shape Open has to
// handle on the happy path.
func fuzzSeedImage() []byte {
	w := NewWriter()
	w.Add(0x10, []byte("catalog-bytes-here"))
	w.Add(0x20, Float64Bytes([]float64{1.5, -2.25, 3.125}))
	w.Add(0x30, nil)
	w.Add(0x40, []byte{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01, 0x02, 0x03})
	return w.Bytes()
}

// typedOpenError reports whether err maps to the package's typed error set —
// the contract is that every corrupt input yields exactly one of these.
func typedOpenError(err error) bool {
	for _, want := range []error{ErrBadMagic, ErrVersion, ErrTruncated, ErrChecksum, ErrMisaligned, ErrCorrupt} {
		if errors.Is(err, want) {
			return true
		}
	}
	return false
}

// FuzzOpen: Open must never panic on hostile bytes, every rejection must be
// a typed error, and every accepted image must serve its sections cleanly.
func FuzzOpen(f *testing.F) {
	img := fuzzSeedImage()
	for _, seed := range fuzzSeedVariants(img) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Open(data)
		if err != nil {
			if !typedOpenError(err) {
				t.Fatalf("Open returned an untyped error: %v", err)
			}
			return
		}
		if r.Len() != len(data) {
			t.Fatalf("Len = %d, input is %d bytes", r.Len(), len(data))
		}
		if r.SectionCount() != len(r.ids) {
			t.Fatalf("SectionCount = %d, ids = %d", r.SectionCount(), len(r.ids))
		}
		for _, id := range r.ids {
			p, ok := r.Section(id)
			if !ok {
				t.Fatalf("validated section %#x not retrievable", id)
			}
			if _, err := r.MustSection(id); err != nil {
				t.Fatalf("MustSection(%#x) = %v on a validated image", id, err)
			}
			if len(p)%8 == 0 {
				if _, err := Float64View(p); err != nil {
					t.Fatalf("Float64View on aligned %d-byte section %#x: %v", len(p), id, err)
				}
			}
		}
		// A valid image may itself hold any id, so probe one it lacks.
		absent := uint32(0xfffffff0)
		for slices.Contains(r.ids, absent) {
			absent++
		}
		if _, ok := r.Section(absent); ok {
			t.Fatalf("Section returned ok for the absent id %#x", absent)
		}
	})
}

// fuzzSeedVariants derives corrupt-in-interesting-ways mutants from a valid
// image, steering the fuzzer toward each validation branch.
func fuzzSeedVariants(img []byte) [][]byte {
	flip := func(i int) []byte {
		m := append([]byte(nil), img...)
		m[i] ^= 0xFF
		return m
	}
	badVersion := append([]byte(nil), img...)
	binary.LittleEndian.PutUint32(badVersion[8:], Version+7)
	badCount := append([]byte(nil), img...)
	binary.LittleEndian.PutUint32(badCount[12:], 1<<20)
	return [][]byte{
		img,
		nil,
		img[:headerSize/2],
		img[:headerSize],
		img[:len(img)-3],
		flip(0),            // magic
		flip(24),           // flags
		flip(headerSize),   // first section id byte
		flip(len(img) - 1), // last payload byte (checksum)
		badVersion,
		badCount,
	}
}

// TestWriteFuzzSeeds regenerates the committed seed corpus under
// testdata/fuzz/FuzzOpen. Gated so a normal test run never rewrites files:
//
//	REVIEWSOLVER_WRITE_FUZZ_SEEDS=1 go test -run TestWriteFuzzSeeds ./internal/snapfile
func TestWriteFuzzSeeds(t *testing.T) {
	if os.Getenv("REVIEWSOLVER_WRITE_FUZZ_SEEDS") == "" {
		t.Skip("set REVIEWSOLVER_WRITE_FUZZ_SEEDS=1 to regenerate the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzOpen")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range fuzzSeedVariants(fuzzSeedImage()) {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n"
		path := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
