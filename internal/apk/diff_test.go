package apk_test

import (
	"reflect"
	"testing"

	"reviewsolver/internal/apk"
	"reviewsolver/internal/synth"
)

// TestDiffReleasesSampleChain pins the structural differ on the seed-1
// sample app's release chain: summed over consecutive release pairs it
// finds 7 added, 7 changed and 0 removed classes. Each pair's touched set
// is exactly added ∪ changed, and re-diffing the same pair (served from the
// fingerprint cache) reproduces the delta.
func TestDiffReleasesSampleChain(t *testing.T) {
	rels := synth.GenerateSample(1).App.Releases
	if len(rels) < 2 {
		t.Fatalf("sample app has %d releases; need 2+", len(rels))
	}
	added, changed, removed := 0, 0, 0
	for i := 1; i < len(rels); i++ {
		d := apk.DiffReleases(rels[i-1], rels[i])
		added += len(d.AddedClasses)
		changed += len(d.ChangedClasses)
		removed += len(d.RemovedClasses)

		touched := append(append([]string(nil), d.AddedClasses...), d.ChangedClasses...)
		if got := d.TouchedClasses(); len(got) != len(touched) {
			t.Fatalf("release %s: %d touched classes, want added+changed = %d", rels[i].Version, len(got), len(touched))
		}
		for _, c := range touched {
			if !d.ClassTouched(c) {
				t.Fatalf("release %s: class %s added or changed but not touched", rels[i].Version, c)
			}
		}
		if again := apk.DiffReleases(rels[i-1], rels[i]); !reflect.DeepEqual(again, d) {
			t.Fatalf("release %s: re-diff differs", rels[i].Version)
		}
	}
	if added != 7 || changed != 7 || removed != 0 {
		t.Fatalf("chain diff: added %d, changed %d, removed %d; want 7, 7, 0", added, changed, removed)
	}
}

// TestDiffReleasesIdentityAndFirstRelease: a release diffed against itself
// is identical; against no predecessor, every class is added.
func TestDiffReleasesIdentityAndFirstRelease(t *testing.T) {
	r := synth.GenerateSample(1).App.Releases[0]
	if d := apk.DiffReleases(r, r); !d.Identical() || len(d.TouchedClasses()) != 0 {
		t.Fatalf("self-diff not identical: %+v", d)
	}
	d := apk.DiffReleases(nil, r)
	if len(d.AddedClasses) != len(r.Classes) || len(d.ChangedClasses) != 0 || len(d.RemovedClasses) != 0 {
		t.Fatalf("first-release diff: %d added of %d classes, %d changed, %d removed",
			len(d.AddedClasses), len(r.Classes), len(d.ChangedClasses), len(d.RemovedClasses))
	}
}
