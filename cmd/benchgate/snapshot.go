package main

import (
	"fmt"
	"reflect"

	"reviewsolver/internal/core"
	"reviewsolver/internal/snapfile"
	"reviewsolver/internal/synth"
)

// snapshotMetrics collects the BENCH_SNAPSHOT.json metrics: structural facts
// of the compiled .snap image for the seeded app (file size, section count,
// matrix shapes) plus invariants pinned at their only acceptable value —
// compile determinism, save→load→save identity, and load-vs-build
// localization equivalence. A format change that alters the image shows up
// as a size/section drift; a semantic regression shows up as a non-zero
// mismatch count.
func snapshotMetrics() (map[string]float64, error) {
	data := synth.GenerateSample(seed)
	app := data.App

	sn := core.NewSnapshot()
	img, err := core.EncodeSnapshot(sn, app)
	if err != nil {
		return nil, fmt.Errorf("encode snapshot: %w", err)
	}
	// Compile determinism: an independently built snapshot of the same IR
	// must produce the same bytes (the in-process form of the CI cmp step).
	img2, err := core.EncodeSnapshot(core.NewSnapshot(), synth.GenerateSample(seed).App)
	if err != nil {
		return nil, fmt.Errorf("second encode: %w", err)
	}
	deterministic := 0.0
	if string(img) == string(img2) {
		deterministic = 1
	}

	r, err := snapfile.Open(img)
	if err != nil {
		return nil, fmt.Errorf("open image: %w", err)
	}

	loaded, lapp, err := core.LoadSnapshotBytes(img)
	if err != nil {
		return nil, fmt.Errorf("load snapshot: %w", err)
	}
	reImg, err := core.EncodeSnapshot(loaded, lapp)
	if err != nil {
		return nil, fmt.Errorf("re-encode loaded snapshot: %w", err)
	}
	roundtrip := 0.0
	if string(reImg) == string(img) {
		roundtrip = 1
	}

	methodRows := 0
	for _, release := range app.Releases {
		methodRows += sn.StaticFor(release).MethodRows()
	}

	// Load-vs-build equivalence over a fixed review sample; pinned at zero
	// in the baseline so any divergence fails the gate.
	built := core.NewWithSnapshot(sn)
	fromFile := core.NewWithSnapshot(loaded)
	reviews := data.Reviews
	if len(reviews) > 10 {
		reviews = reviews[:10]
	}
	mismatches := 0
	for _, rv := range reviews {
		want := built.LocalizeReview(app, rv.Text, rv.PublishedAt)
		got := fromFile.LocalizeReview(lapp, rv.Text, rv.PublishedAt)
		if !reflect.DeepEqual(got.Mappings, want.Mappings) || !reflect.DeepEqual(got.Ranked, want.Ranked) {
			mismatches++
		}
	}

	return map[string]float64{
		"image|file_bytes":             float64(len(img)),
		"image|sections":               float64(r.SectionCount()),
		"image|releases":               float64(len(app.Releases)),
		"shape|catalog_entries":        float64(sn.CatalogSize()),
		"shape|method_rows":            float64(methodRows),
		"pin|deterministic":            deterministic,
		"pin|roundtrip_identical":      roundtrip,
		"pin|load_vs_build_mismatches": float64(mismatches),
	}, nil
}
