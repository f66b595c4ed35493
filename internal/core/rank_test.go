package core

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"reviewsolver/internal/apk"
	"reviewsolver/internal/ctxinfo"
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

// TestChangeAwareRankUsesDiff pins the Changed flag to the release diff:
// a ranked class is marked Changed exactly when apk.DiffReleases lists it
// for the (previous, current) release pair.
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
		diff := apk.DiffReleases(previous, current)
		for _, rc := range res.Ranked {
			if listed := slices.Contains(diff, rc.Class); rc.Changed != listed {
				t.Fatalf("class %s: Changed = %v, but the diff lists it: %v", rc.Class, rc.Changed, listed)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Skip("no review hit a release with a predecessor")
	}
}

// TestBodyOnlyEditIsAnUpdate: a release whose only change is one
// statement's callee — same method names, same statement counts — still
// counts as touching that class. The Update localizer maps an update
// review to it, and change-aware ranking marks it Changed.
func TestBodyOnlyEditIsAnUpdate(t *testing.T) {
	const store = "com.example.notes.Store"
	t0 := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	b := apk.NewBuilder("com.example.notes", "Notes")
	b.Release("1.0", 1, t0)
	b.LauncherActivity("com.example.notes.MainActivity", "main")
	b.Layout("main", apk.Widget{Type: "LinearLayout"})
	b.Class("com.example.notes.MainActivity").
		Method("onCreate", apk.Invoke("", store, "load"))
	b.Class(store).
		Method("load", apk.Invoke("", "java.io.FileInputStream", "read")).
		Method("save", apk.Invoke("", "java.io.FileOutputStream", "write"))
	b.CopyRelease("1.1", 2, t0.AddDate(0, 1, 0))
	c, _ := b.CurrentRelease().FindClass(store)
	c.Methods[0].Statements[0].InvokeMethod = "readFully"
	app := b.Build()

	res := New(WithChangeAwareRank()).LocalizeReview(app,
		"app started crashing after recent update", t0.AddDate(0, 2, 0))
	want := []Mapping{{Phrase: "app update", Class: store, Context: ctxinfo.UpdatingApp}}
	if !reflect.DeepEqual(res.Mappings, want) {
		t.Fatalf("mappings = %+v, want %+v", res.Mappings, want)
	}
	if len(res.Ranked) != 1 || res.Ranked[0].Class != store || !res.Ranked[0].Changed {
		t.Fatalf("ranked = %+v, want %s marked Changed", res.Ranked, store)
	}
}
