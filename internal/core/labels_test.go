package core

import (
	"reflect"
	"strings"
	"testing"

	"reviewsolver/internal/obs"
	"reviewsolver/internal/synth"
)

// labeledSnapshot runs a labeled, observed pool of the given worker count
// over the seed corpus and returns only the labeled ("name{…}") entries of
// the registry snapshot.
func labeledSnapshot(t *testing.T, seed int64, workers int) map[string]float64 {
	t.Helper()
	data := synth.GenerateSample(seed)
	reviews := data.Reviews
	if len(reviews) > 10 {
		reviews = reviews[:10]
	}
	inputs := make([]ReviewInput, len(reviews))
	for i, rv := range reviews {
		inputs[i] = ReviewInput{Text: rv.Text, PublishedAt: rv.PublishedAt}
	}
	reg := obs.NewRegistry()
	NewPool(workers, WithAppLabel(data.App.Package)).
		WithObserver(obs.NewRecorder(reg, nil)).
		Localize(data.App, inputs)
	out := make(map[string]float64)
	for k, v := range reg.Snapshot() {
		if strings.Contains(k, "{") {
			out[k] = v
		}
	}
	return out
}

// TestAppLabeledCountersWorkerInvariant is the per-app labeled analogue of
// the pipeline determinism property: the labeled counter set (keys and
// values) must be identical across pool worker counts, because each review
// bumps its counters once, from whichever worker localized it.
func TestAppLabeledCountersWorkerInvariant(t *testing.T) {
	for _, seed := range []int64{3, 5, 7, 9} {
		base := labeledSnapshot(t, seed, 1)
		if len(base) == 0 {
			t.Fatalf("seed %d: labeled solver produced no labeled metrics", seed)
		}
		for _, workers := range []int{2, 4} {
			got := labeledSnapshot(t, seed, workers)
			if !reflect.DeepEqual(base, got) {
				t.Errorf("seed %d: labeled counters differ between workers=1 and workers=%d:\n%v\nvs\n%v",
					seed, workers, base, got)
			}
		}
	}
}

// TestAppLabeledCountersMatchAggregates: for a single-app solver the
// labeled children must exactly equal the aggregate pipeline counters, and
// labeling must not change localization output.
func TestAppLabeledCountersMatchAggregates(t *testing.T) {
	data := synth.GenerateSample(5)
	reviews := data.Reviews
	if len(reviews) > 10 {
		reviews = reviews[:10]
	}
	reg := obs.NewRegistry()
	labeled := New(WithObserver(obs.NewRecorder(reg, nil)), WithAppLabel(data.App.Package))
	plain := New()
	for i, rv := range reviews {
		got := labeled.LocalizeReview(data.App, rv.Text, rv.PublishedAt)
		want := plain.LocalizeReview(data.App, rv.Text, rv.PublishedAt)
		if !reflect.DeepEqual(got.Ranked, want.Ranked) {
			t.Fatalf("review %d: app labeling changed ranking", i)
		}
	}
	snap := reg.Snapshot()
	for _, metric := range []string{metricReviews, metricErrorReviews, metricLocalizedReviews, metricMappings} {
		child := metric + `{app="` + data.App.Package + `"}`
		if snap[child] != snap[metric] {
			t.Errorf("%s = %v, aggregate %s = %v — labeled child must mirror the aggregate",
				child, snap[child], metric, snap[metric])
		}
	}
	if snap[metricReviews] != float64(len(reviews)) {
		t.Fatalf("reviews_total = %v, want %d", snap[metricReviews], len(reviews))
	}
}

// TestUnlabeledSolverEmitsNoLabeledMetrics: the default (no WithAppLabel)
// keeps the registry exactly as before this layer existed.
func TestUnlabeledSolverEmitsNoLabeledMetrics(t *testing.T) {
	data := synth.GenerateSample(3)
	reg := obs.NewRegistry()
	s := New(WithObserver(obs.NewRecorder(reg, nil)))
	rv := data.Reviews[0]
	s.LocalizeReview(data.App, rv.Text, rv.PublishedAt)
	for k := range reg.Snapshot() {
		if strings.Contains(k, "{") {
			t.Fatalf("unlabeled solver emitted labeled metric %q", k)
		}
	}
}
