package core

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"reviewsolver/internal/apk"
	"reviewsolver/internal/snapfile"
	"reviewsolver/internal/synth"
)

// buildImage encodes one seeded app's snapshot.
func buildImage(t *testing.T, seed int64) (*synth.AppData, *Snapshot, []byte) {
	t.Helper()
	data := synth.GenerateSample(seed)
	sn := NewSnapshot()
	img, err := EncodeSnapshot(sn, data.App)
	if err != nil {
		t.Fatalf("seed %d: EncodeSnapshot: %v", seed, err)
	}
	return data, sn, img
}

// TestSnapshotEncodeDeterministic: same IR → same bytes, including across
// independently built snapshots, and across a save→load→save round trip.
func TestSnapshotEncodeDeterministic(t *testing.T) {
	data, sn, img := buildImage(t, 3)
	again, err := EncodeSnapshot(sn, data.App)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if string(again) != string(img) {
		t.Fatal("re-encoding the same snapshot produced different bytes")
	}
	img2, err := EncodeSnapshot(NewSnapshot(), synth.GenerateSample(3).App)
	if err != nil {
		t.Fatalf("independent encode: %v", err)
	}
	if string(img2) != string(img) {
		t.Fatal("independently built snapshots of the same IR differ")
	}

	loaded, lapp, err := LoadSnapshotBytes(img)
	if err != nil {
		t.Fatalf("LoadSnapshotBytes: %v", err)
	}
	reImg, err := EncodeSnapshot(loaded, lapp)
	if err != nil {
		t.Fatalf("encode of loaded snapshot: %v", err)
	}
	if string(reImg) != string(img) {
		t.Fatal("save→load→save is not byte-identical")
	}
}

// TestLoadSnapshotMatchesBuild is the tentpole property test: localization
// served from a loaded snapshot is identical to the in-memory NewSnapshot
// path, across seeds and worker counts.
func TestLoadSnapshotMatchesBuild(t *testing.T) {
	for _, seed := range []int64{3, 5, 7, 9} {
		data, sn, img := buildImage(t, seed)
		loaded, lapp, err := LoadSnapshotBytes(img)
		if err != nil {
			t.Fatalf("seed %d: LoadSnapshotBytes: %v", seed, err)
		}
		if loaded.CatalogSize() != sn.CatalogSize() {
			t.Fatalf("seed %d: catalog size %d, want %d", seed, loaded.CatalogSize(), sn.CatalogSize())
		}

		inputs := make([]ReviewInput, 0, 25)
		for i, rv := range data.Reviews {
			if i >= 25 {
				break
			}
			inputs = append(inputs, ReviewInput{Text: rv.Text, PublishedAt: rv.PublishedAt})
		}
		want := NewPoolWithSnapshot(1, sn).Localize(data.App, inputs)

		for _, workers := range []int{1, 2, 4} {
			got := NewPoolWithSnapshot(workers, loaded).Localize(lapp, inputs)
			if len(got) != len(want) {
				t.Fatalf("seed %d workers %d: %d results, want %d", seed, workers, len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i].Mappings, want[i].Mappings) {
					t.Fatalf("seed %d workers %d review %d: loaded mappings differ from built", seed, workers, i)
				}
				if !reflect.DeepEqual(got[i].Ranked, want[i].Ranked) {
					t.Fatalf("seed %d workers %d review %d: loaded ranking differs from built", seed, workers, i)
				}
			}
		}
	}
}

// TestSaveLoadSnapshotFile exercises the file-path API.
func TestSaveLoadSnapshotFile(t *testing.T) {
	data := synth.GenerateSample(5)
	path := filepath.Join(t.TempDir(), "app.snap")
	img, err := EncodeSnapshot(NewSnapshot(), data.App)
	if err != nil {
		t.Fatalf("EncodeSnapshot: %v", err)
	}
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, lapp, err := LoadSnapshot(path)
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if lapp.Package != data.App.Package || len(lapp.Releases) != len(data.App.Releases) {
		t.Fatalf("loaded IR %s/%d releases, want %s/%d",
			lapp.Package, len(lapp.Releases), data.App.Package, len(data.App.Releases))
	}
	rv := data.ErrorReviews()[0]
	res := NewWithSnapshot(loaded).LocalizeReview(lapp, rv.Text, rv.PublishedAt)
	if res == nil || !res.IsError {
		t.Fatal("loaded snapshot did not localize an error review")
	}
	if _, _, err := LoadSnapshot(filepath.Join(t.TempDir(), "missing.snap")); err == nil {
		t.Fatal("LoadSnapshot on a missing file succeeded")
	}
}

// rewriteSection mutates a section payload in place and fixes up its CRC in
// the section table, so the container stays valid and the mutation reaches
// the schema layer.
func rewriteSection(t *testing.T, img []byte, id uint32, mutate func(payload []byte)) []byte {
	t.Helper()
	out := append([]byte(nil), img...)
	le := binary.LittleEndian
	count := int(le.Uint32(out[12:]))
	for i := 0; i < count; i++ {
		e := out[32+32*i:]
		if le.Uint32(e[0:]) != id {
			continue
		}
		off, length := le.Uint64(e[8:]), le.Uint64(e[16:])
		payload := out[off : off+length]
		mutate(payload)
		le.PutUint32(e[4:], snapfile.Checksum(payload))
		return out
	}
	t.Fatalf("section %#x not found", id)
	return nil
}

// TestEncodeSnapshotRejectsReversedReleases: an image whose release
// history is out of time order can never load, so the encoder refuses to
// write it and returns the typed order error.
func TestEncodeSnapshotRejectsReversedReleases(t *testing.T) {
	app := synth.GenerateSample(1).App
	slices.Reverse(app.Releases)
	img, err := EncodeSnapshot(NewSnapshot(), app)
	var oe *apk.ReleaseOrderError
	if !errors.As(err, &oe) {
		t.Fatalf("EncodeSnapshot = %d bytes, %v; want a *apk.ReleaseOrderError", len(img), err)
	}
}

// TestLoadSnapshotTypedErrors: corrupt or incompatible images must surface
// as the documented typed errors, never panics.
func TestLoadSnapshotTypedErrors(t *testing.T) {
	data, _, img := buildImage(t, 3)

	t.Run("truncated", func(t *testing.T) {
		_, _, err := LoadSnapshotBytes(img[:len(img)/3])
		if !errors.Is(err, snapfile.ErrTruncated) {
			t.Fatalf("err = %v, want ErrTruncated", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), img...)
		bad[0] = '!'
		_, _, err := LoadSnapshotBytes(bad)
		if !errors.Is(err, snapfile.ErrBadMagic) {
			t.Fatalf("err = %v, want ErrBadMagic", err)
		}
	})
	t.Run("unsupported version", func(t *testing.T) {
		bad := append([]byte(nil), img...)
		binary.LittleEndian.PutUint32(bad[8:], snapfile.Version+7)
		_, _, err := LoadSnapshotBytes(bad)
		if !errors.Is(err, snapfile.ErrVersion) {
			t.Fatalf("err = %v, want ErrVersion", err)
		}
	})
	t.Run("checksum mismatch", func(t *testing.T) {
		bad := append([]byte(nil), img...)
		bad[len(bad)-1] ^= 0xff // last payload byte, CRC not fixed up
		_, _, err := LoadSnapshotBytes(bad)
		if !errors.Is(err, snapfile.ErrChecksum) {
			t.Fatalf("err = %v, want ErrChecksum", err)
		}
	})
	t.Run("misaligned section", func(t *testing.T) {
		bad := append([]byte(nil), img...)
		le := binary.LittleEndian
		off := le.Uint64(bad[32+8:])
		le.PutUint64(bad[32+8:], off+4)
		_, _, err := LoadSnapshotBytes(bad)
		if !errors.Is(err, snapfile.ErrMisaligned) {
			t.Fatalf("err = %v, want ErrMisaligned", err)
		}
	})
	t.Run("incompatible dim", func(t *testing.T) {
		bad := rewriteSection(t, img, secMeta, func(p []byte) {
			// Dim is the u32 after the package string and release count.
			off := 4 + binary.LittleEndian.Uint32(p) + 4
			binary.LittleEndian.PutUint32(p[off:], 128)
		})
		_, _, err := LoadSnapshotBytes(bad)
		if !errors.Is(err, ErrSnapshotIncompatible) {
			t.Fatalf("err = %v, want ErrSnapshotIncompatible", err)
		}
	})
	t.Run("catalog fingerprint mismatch", func(t *testing.T) {
		bad := rewriteSection(t, img, secMeta, func(p []byte) {
			off := 4 + binary.LittleEndian.Uint32(p) + 4 + 4 + 4 + 8 + 4
			p[off] ^= 0xff
		})
		_, _, err := LoadSnapshotBytes(bad)
		if !errors.Is(err, ErrSnapshotIncompatible) {
			t.Fatalf("err = %v, want ErrSnapshotIncompatible", err)
		}
	})
	t.Run("vocabulary fingerprint mismatch", func(t *testing.T) {
		bad := rewriteSection(t, img, secInterner, func(p []byte) {
			p[len(p)-1] ^= 0xff
		})
		_, _, err := LoadSnapshotBytes(bad)
		if !errors.Is(err, ErrSnapshotIncompatible) {
			t.Fatalf("err = %v, want ErrSnapshotIncompatible", err)
		}
	})
	t.Run("corrupt app IR", func(t *testing.T) {
		bad := rewriteSection(t, img, secAppIR, func(p []byte) {
			// Stomp the release count inside the IR with a huge value.
			d := snapfile.NewDec(p)
			d.Str()
			d.Str()
			off := len(p) - d.Remaining()
			binary.LittleEndian.PutUint32(p[off:], 1<<30)
		})
		_, _, err := LoadSnapshotBytes(bad)
		if !errors.Is(err, snapfile.ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("releases out of order", func(t *testing.T) {
		// EncodeSnapshot refuses such an app, so write the reversed release
		// history straight into the image's IR section.
		app := *data.App
		app.Releases = slices.Clone(app.Releases)
		slices.Reverse(app.Releases)
		ir := snapfile.NewEnc(0)
		app.AppendBinary(ir)
		bad := rewriteSection(t, img, secAppIR, func(p []byte) {
			if len(p) != len(ir.Bytes()) {
				t.Fatalf("reversed IR is %d bytes, section holds %d", len(ir.Bytes()), len(p))
			}
			copy(p, ir.Bytes())
		})
		_, _, err := LoadSnapshotBytes(bad)
		var oe *apk.ReleaseOrderError
		if !errors.Is(err, snapfile.ErrCorrupt) || !errors.As(err, &oe) {
			t.Fatalf("err = %v, want ErrCorrupt wrapping a *apk.ReleaseOrderError", err)
		}
	})
	t.Run("missing section", func(t *testing.T) {
		// Relabel the catalog-data section so the expected ID is absent.
		bad := append([]byte(nil), img...)
		le := binary.LittleEndian
		count := int(le.Uint32(bad[12:]))
		for i := 0; i < count; i++ {
			e := bad[32+32*i:]
			if le.Uint32(e[0:]) == secCatData {
				le.PutUint32(e[0:], 0xdead)
				break
			}
		}
		_, _, err := LoadSnapshotBytes(bad)
		if !errors.Is(err, snapfile.ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
}

// TestLoadSnapshotRejectsVersion1: format version 2 retired the quantized
// tier and delta-image sections, so every version 1 image — a plain full
// image as much as one carrying the retired section IDs — fails with the
// typed snapfile.ErrVersion.
func TestLoadSnapshotRejectsVersion1(t *testing.T) {
	_, _, img := buildImage(t, 3)
	// A container holding the retired catalog quant-tier pair (9, 10) and
	// the delta binding (11).
	w := snapfile.NewWriter()
	for _, id := range []uint32{secMeta, 9, 10, 11} {
		w.Add(id, []byte{0, 0, 0, 0})
	}
	for _, tc := range []struct {
		name string
		img  []byte
	}{{"full image", img}, {"retired sections", w.Bytes()}} {
		v1 := append([]byte(nil), tc.img...)
		binary.LittleEndian.PutUint32(v1[8:], 1)
		if _, _, err := LoadSnapshotBytes(v1); !errors.Is(err, snapfile.ErrVersion) {
			t.Fatalf("%s at version 1: err = %v, want ErrVersion", tc.name, err)
		}
	}
}
