package apk_test

import (
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"reviewsolver/internal/apk"
	"reviewsolver/internal/synth"
)

var day0 = time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)

// TestDiffReleasesSampleChain pins the differ on the seed-1 sample app's
// release chain: summed over consecutive release pairs it lists 14 classes,
// 7 added and 7 changed. Each list is sorted, and re-diffing a pair returns
// the memoized list itself.
func TestDiffReleasesSampleChain(t *testing.T) {
	rels := synth.GenerateSample(1).App.Releases
	if len(rels) < 2 {
		t.Fatalf("sample app has %d releases; need 2+", len(rels))
	}
	added, changed := 0, 0
	for i := 1; i < len(rels); i++ {
		d := apk.DiffReleases(rels[i-1], rels[i])
		if !sort.StringsAreSorted(d) {
			t.Fatalf("release %s: diff not sorted: %v", rels[i].Version, d)
		}
		for _, c := range d {
			if _, existed := rels[i-1].FindClass(c); existed {
				changed++
			} else {
				added++
			}
		}
		again := apk.DiffReleases(rels[i-1], rels[i])
		if len(d) > 0 && &again[0] != &d[0] {
			t.Fatalf("release %s: re-diff was recomputed, not served from the memo", rels[i].Version)
		}
	}
	if added != 7 || changed != 7 {
		t.Fatalf("chain diff: added %d, changed %d; want 7, 7", added, changed)
	}
}

// TestDiffReleasesIdentityAndFirstRelease: a release diffed against itself
// lists nothing; against no predecessor, every class counts as added.
func TestDiffReleasesIdentityAndFirstRelease(t *testing.T) {
	r := synth.GenerateSample(1).App.Releases[0]
	if d := apk.DiffReleases(r, r); len(d) != 0 {
		t.Fatalf("self-diff lists %v", d)
	}
	if d := apk.DiffReleases(nil, r); !reflect.DeepEqual(d, r.ClassNames()) {
		t.Fatalf("first-release diff lists %d classes, want all %d sorted", len(d), len(r.Classes))
	}
}

// TestDiffReleasesAddedClass: a release that copies its predecessor and
// adds one class diffs to exactly that class.
func TestDiffReleasesAddedClass(t *testing.T) {
	b := apk.NewBuilder("com.example.mail", "ExampleMail")
	b.Release("1.0", 1, day0)
	b.Class("com.example.mail.MainActivity").
		Method("onCreate",
			apk.ConstString("s0", "welcome"),
			apk.Invoke("", "android.widget.Toast", "makeText", "s0")).
		Method("sendMail", apk.Invoke("", "java.net.URLConnection", "connect"))
	b.CopyRelease("1.1", 2, day0.AddDate(0, 0, 30))
	b.Class("com.example.mail.SyncService").
		Method("syncAll", apk.Invoke("", "java.net.Socket", "connect"))
	app := b.Build()
	got := apk.DiffReleases(app.Releases[0], app.Releases[1])
	if want := []string{"com.example.mail.SyncService"}; !reflect.DeepEqual(got, want) {
		t.Errorf("DiffReleases = %v, want %v", got, want)
	}
}

// TestDiffReleasesBodyOnlyEdit: a changed statement body is a change even
// when every method name and statement count stays the same.
func TestDiffReleasesBodyOnlyEdit(t *testing.T) {
	b := apk.NewBuilder("com.example.notes", "Notes")
	b.Release("1.0", 1, day0)
	b.Class("com.example.notes.Store").
		Method("load", apk.Invoke("", "java.io.FileInputStream", "read")).
		Method("save", apk.Invoke("", "java.io.FileOutputStream", "write"))
	b.Class("com.example.notes.Util").
		Method("trim", apk.Return())
	b.CopyRelease("1.1", 2, day0.AddDate(0, 0, 30))
	store, _ := b.CurrentRelease().FindClass("com.example.notes.Store")
	store.Methods[0].Statements[0].InvokeMethod = "readFully"
	app := b.Build()
	got := apk.DiffReleases(app.Releases[0], app.Releases[1])
	if want := []string{"com.example.notes.Store"}; !reflect.DeepEqual(got, want) {
		t.Errorf("DiffReleases = %v, want %v", got, want)
	}
}

// TestDiffReleasesConcurrentPairs: eight goroutines diff one release
// against two predecessors in turn, so they keep replacing each other's
// memo entry; every call must still return its own pair's answer, as
// computed sequentially on fresh copies.
func TestDiffReleasesConcurrentPairs(t *testing.T) {
	rels := synth.GenerateSample(1).App.Releases
	next, near, far := rels[len(rels)-1], rels[len(rels)-2], rels[0]
	fresh := func(r *apk.Release) *apk.Release { return &apk.Release{Classes: r.Classes} }
	wantNear := apk.DiffReleases(fresh(near), fresh(next))
	wantFar := apk.DiffReleases(fresh(far), fresh(next))
	if reflect.DeepEqual(wantNear, wantFar) {
		t.Fatal("the two pairs diff alike; the test needs distinct answers")
	}
	var wg sync.WaitGroup
	failed := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				prev, want := near, wantNear
				if (g+i)%2 == 1 {
					prev, want = far, wantFar
				}
				if got := apk.DiffReleases(prev, next); !reflect.DeepEqual(got, want) {
					failed <- prev.Version + " -> " + next.Version
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(failed)
	for pair := range failed {
		t.Errorf("concurrent diff of %s differs from the sequential answer", pair)
	}
}
