package core

import (
	"reflect"
	"testing"

	"reviewsolver/internal/apk"
	"reviewsolver/internal/synth"
)

// TestChangeAwareRankBoostsChangedClasses: under WithChangeAwareRank every
// candidate class touched by the version bump must rank ahead of every
// unchanged candidate, and the mapping set (localization proper) must be
// untouched.
func TestChangeAwareRankBoostsChangedClasses(t *testing.T) {
	for _, seed := range []int64{3, 5, 9} {
		data := synth.GenerateSample(seed)
		app := data.App
		plain := New()
		aware := New(WithChangeAwareRank())
		for _, rv := range data.Reviews {
			want := plain.LocalizeReview(app, rv.Text, rv.PublishedAt)
			got := aware.LocalizeReview(app, rv.Text, rv.PublishedAt)
			if !reflect.DeepEqual(got.Mappings, want.Mappings) {
				t.Fatal("change-aware ranking altered the mapping set")
			}
			_, previous, ok := app.ReleaseBefore(rv.PublishedAt)
			if !ok || previous == nil {
				// No predecessor: rankings must agree exactly.
				if !reflect.DeepEqual(got.Ranked, want.Ranked) {
					t.Fatal("no-predecessor review ranked differently under change-aware ranking")
				}
				continue
			}
			seenUnchanged := false
			for _, rc := range got.Ranked {
				if rc.Changed && seenUnchanged {
					t.Fatalf("seed %d: changed class %s ranked below an unchanged one", seed, rc.Class)
				}
				if !rc.Changed {
					seenUnchanged = true
				}
			}
		}
	}
}

// TestChangeAwareRankUsesDiff pins the Changed flag to the structural diff:
// every class marked Changed must be in the touched set of the
// (previous, current) release diff.
func TestChangeAwareRankUsesDiff(t *testing.T) {
	data := synth.GenerateSample(5)
	app := data.App
	aware := New(WithChangeAwareRank())
	checked := 0
	for _, rv := range data.Reviews {
		res := aware.LocalizeReview(app, rv.Text, rv.PublishedAt)
		current, previous, ok := app.ReleaseBefore(rv.PublishedAt)
		if !ok || previous == nil || res.Release != current {
			continue
		}
		d := apk.DiffReleases(previous, current)
		for _, rc := range res.Ranked {
			if rc.Changed && !d.ClassTouched(rc.Class) {
				t.Fatalf("class %s marked changed but diff disagrees", rc.Class)
			}
			if !rc.Changed && d.ClassTouched(rc.Class) {
				t.Fatalf("class %s touched by diff but not marked changed", rc.Class)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Skip("no review hit a release with a predecessor")
	}
}
