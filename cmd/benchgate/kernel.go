package main

import (
	"strings"

	"reviewsolver/internal/core"
	"reviewsolver/internal/synth"
	"reviewsolver/internal/wordvec"
)

// kernelProbes are fixed query phrases scanned against the method-phrase and
// framework-catalog matrices. Their prescreen prune/evaluate/match counts are
// pure functions of the embedding model, the lexicon anchors, and the seeded
// corpus, so any change to the kernel, the prescreen basis, or the flattened
// matrix layout shifts at least one count.
var kernelProbes = []string{
	"fetch mail",
	"send message",
	"download attachment",
	"sync account",
	"open settings",
}

// kernelSnapshot builds the BENCH_KERNEL.json snapshot: deterministic scan
// statistics plus the full-pipeline mapping count over a fixed review
// sample. Unlike wall-clock benchmarks these numbers are exactly
// reproducible, so the gate catches kernel regressions without timing
// noise. (Exactness against a brute-force cosine matcher is
// property-tested in internal/core.)
func kernelSnapshot(seed int64) snapshotFile {
	data := synth.GenerateSample(seed)
	app := data.App
	release := app.Releases[len(app.Releases)-1]

	s := core.New()
	info := s.StaticFor(release)

	m := map[string]float64{
		"shape|method_rows":  float64(info.MethodRows()),
		"shape|catalog_rows": float64(s.CatalogRows()),
		"shape|basis_size":   float64(wordvec.BasisSize()),
	}
	for _, phrase := range kernelProbes {
		key := strings.ReplaceAll(phrase, " ", "_")
		pr, ev, ma := s.KernelScanStats(info, phrase)
		m["method|"+key+"|pruned"] = float64(pr)
		m["method|"+key+"|evaluated"] = float64(ev)
		m["method|"+key+"|matched"] = float64(ma)
		pr, ev, ma = s.CatalogScanStats(phrase)
		m["catalog|"+key+"|pruned"] = float64(pr)
		m["catalog|"+key+"|evaluated"] = float64(ev)
		m["catalog|"+key+"|matched"] = float64(ma)
	}

	reviews := data.Reviews
	if len(reviews) > 10 {
		reviews = reviews[:10]
	}
	mappings := 0
	for _, rv := range reviews {
		mappings += len(s.LocalizeReview(app, rv.Text, rv.PublishedAt).Mappings)
	}
	m["pipeline|mappings"] = float64(mappings)

	return snapshotFile{
		Table:   0,
		ID:      "kernel",
		Title:   "Similarity-kernel scan statistics",
		Seed:    seed,
		Metrics: m,
	}
}
