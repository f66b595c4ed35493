package core

import (
	"reflect"
	"testing"

	"reviewsolver/internal/ctxinfo"
	"reviewsolver/internal/synth"
)

// TestKernelRankingMatchesLegacy is the property test of the kernel layer:
// across seeded synthetic corpora, the full-pipeline output of the matrix
// kernel (flattened dot scans + anchor prescreen) must be byte-identical to
// the brute-force full-cosine oracle (oracle_test.go). Every review of each
// corpus runs: only a few dozen of them land scan matches near the 0.68
// threshold, where a kernel fault would show.
func TestKernelRankingMatchesLegacy(t *testing.T) {
	for _, seed := range []int64{3, 7, 21} {
		data := synth.GenerateSample(seed)
		app := data.App

		kernel := New()
		oracle := cosineOracle{New()}

		for i, rv := range data.Reviews {
			want := oracle.LocalizeReview(app, rv.Text, rv.PublishedAt)
			got := kernel.LocalizeReview(app, rv.Text, rv.PublishedAt)
			if !reflect.DeepEqual(got.Mappings, want.Mappings) {
				t.Fatalf("seed %d review %d: kernel mappings differ from the cosine oracle", seed, i)
			}
			if !reflect.DeepEqual(got.Ranked, want.Ranked) {
				t.Fatalf("seed %d review %d: kernel ranking differs from the cosine oracle", seed, i)
			}
		}
	}
}

// TestKernelSnapshotParallelMatchesLegacy stacks every layer at once: a
// snapshot-backed solver with inner parallelism and the kernel matcher must
// reproduce the sequential brute-force cosine oracle byte for byte.
func TestKernelSnapshotParallelMatchesLegacy(t *testing.T) {
	data := synth.GenerateSample(5)
	app := data.App

	oracle := cosineOracle{New()}
	sn := NewSnapshot()
	kernel := NewWithSnapshot(sn, WithParallelism(4))

	for i, rv := range data.Reviews {
		want := oracle.LocalizeReview(app, rv.Text, rv.PublishedAt)
		got := kernel.LocalizeReview(app, rv.Text, rv.PublishedAt)
		if !reflect.DeepEqual(got.Mappings, want.Mappings) {
			t.Fatalf("review %d: snapshot+parallel kernel mappings differ from the cosine oracle", i)
		}
		if !reflect.DeepEqual(got.Ranked, want.Ranked) {
			t.Fatalf("review %d: snapshot+parallel kernel ranking differs from the cosine oracle", i)
		}
	}
}

// TestKernelPerContextMatchesLegacy exercises each vector-driven localizer
// in isolation so a divergence pinpoints the context that broke.
func TestKernelPerContextMatchesLegacy(t *testing.T) {
	data := synth.GenerateSample(9)
	app := data.App

	kernel := New()
	oracle := cosineOracle{New()}

	release := app.Releases[len(app.Releases)-1]
	prev := app.Releases[len(app.Releases)-2]
	kInfo := kernel.StaticFor(release)
	oInfo := oracle.s.StaticFor(release)

	for i, rv := range data.Reviews {
		ra := kernel.AnalyzeReview(rv.Text)
		for _, ctx := range ctxinfo.All() {
			want := oracle.LocalizeByContext(ctx, ra, oInfo, prev, release)
			got := kernel.LocalizeByContext(ctx, ra, kInfo, prev, release)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("review %d context %s: kernel mappings differ from the cosine oracle", i, ctx)
			}
		}
	}
}

// TestScanStatsDeterministic guards the prescreen bookkeeping benchgate
// snapshots: stats are stable across repeated scans of the same corpus.
func TestScanStatsDeterministic(t *testing.T) {
	data := synth.GenerateSample(3)
	s := New()
	info := s.StaticFor(data.App.Releases[len(data.App.Releases)-1])
	p1, e1, m1 := s.KernelScanStats(info, "fetch mail")
	p2, e2, m2 := s.KernelScanStats(info, "fetch mail")
	if p1 != p2 || e1 != e2 || m1 != m2 {
		t.Fatalf("scan stats not deterministic: (%d,%d,%d) vs (%d,%d,%d)", p1, e1, m1, p2, e2, m2)
	}
	if p1+e1 != info.methodMatrix.Rows() {
		t.Fatalf("pruned %d + evaluated %d != rows %d", p1, e1, info.methodMatrix.Rows())
	}
}
