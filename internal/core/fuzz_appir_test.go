package core

import (
	"encoding/json"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"reviewsolver/internal/apk"
	"reviewsolver/internal/ctxinfo"
	"reviewsolver/internal/synth"
)

// appIRFixture is what FuzzAppIR edits and localizes: the smallest
// generated Table 14 app (ML Manager, two releases) as IR JSON, so that
// every input decodes a fresh copy, and a fixed review set: the app's first
// generated error review of each context type, then appIRReviews.
type appIRFixture struct {
	appJSON []byte
	reviews []string
}

// appIRReviews reach the localizers the generated reviews miss: a quoted
// message of the app's code, its login widgets, an exception one of its
// methods catches, and account registration.
var appIRReviews = []string{
	`It says "Login failed, check credentials" every time.`,
	"The sign in button does not work and the username field is gone.",
	"There is a socket exception whenever it downloads a file.",
	"I cannot register my account.",
}

var appIRBase = sync.OnceValue(func() appIRFixture {
	var data *synth.AppData
	for _, d := range synth.GenerateTable14(1) {
		if d.Info.Package == "com.javiersantos.mlmanager" {
			data = d
		}
	}
	body, err := json.Marshal(data.App)
	if err != nil {
		panic(err)
	}
	seen := make(map[ctxinfo.Type]bool)
	var reviews []string
	for _, r := range data.ErrorReviews() {
		if !seen[r.Context] {
			seen[r.Context] = true
			reviews = append(reviews, r.Text)
		}
	}
	return appIRFixture{appJSON: body, reviews: append(reviews, appIRReviews...)}
})

// appIREdit is one fuzzer-chosen edit of an app IR. op picks the edit, r
// the release, and at and pick the element and, for renames, the new name.
type appIREdit struct{ op, r, at, pick byte }

// The edits FuzzAppIR makes.
const (
	editDropClass = iota
	editRenameClass
	editDupClass
	editDropMethod
	editRenameMethod
	editDupMethod
	editDropWidget
	editRenameWidget
	editDupWidget
	editDropString
	editRenameString
	editDupString
	editEmptyRelease
	numAppIREdits
)

// maxAppIREdits bounds the edits one input makes.
const maxAppIREdits = 32

// appIREdits decodes fuzz bytes into edits, four bytes each.
func appIREdits(data []byte) []appIREdit {
	var out []appIREdit
	for len(data) >= 4 && len(out) < maxAppIREdits {
		out = append(out, appIREdit{op: data[0] % numAppIREdits, r: data[1], at: data[2], pick: data[3]})
		data = data[4:]
	}
	return out
}

// encodeAppIREdits is the inverse of appIREdits, for seeds.
func encodeAppIREdits(edits ...appIREdit) []byte {
	var out []byte
	for _, e := range edits {
		out = append(out, e.op, e.r, e.at, e.pick)
	}
	return out
}

// rename derives a new name for an element: old with a suffix, another
// element's name (a collision), the empty string, or a dotted name.
func rename(old string, pick byte, others []string) string {
	switch pick % 4 {
	case 0:
		return old + "X"
	case 1:
		if len(others) > 0 {
			return others[int(pick/4)%len(others)]
		}
		return old
	case 2:
		return ""
	default:
		return old + ".inner"
	}
}

// widgetRef locates a widget: the parent's Children slice holds it at idx,
// or, with parent nil, it is the root of layout idx.
type widgetRef struct {
	parent *apk.Widget
	idx    int
}

func (w widgetRef) get(r *apk.Release) *apk.Widget {
	if w.parent == nil {
		return &r.Layouts[w.idx].Root
	}
	return &w.parent.Children[w.idx]
}

// widgets lists every widget of a release in layout and depth-first order.
func widgets(r *apk.Release) []widgetRef {
	var out []widgetRef
	var walk func(w *apk.Widget)
	walk = func(w *apk.Widget) {
		for i := range w.Children {
			out = append(out, widgetRef{parent: w, idx: i})
			walk(&w.Children[i])
		}
	}
	for i := range r.Layouts {
		out = append(out, widgetRef{idx: i})
		walk(&r.Layouts[i].Root)
	}
	return out
}

func cloneWidget(w apk.Widget) apk.Widget {
	if w.Children != nil {
		children := make([]apk.Widget, len(w.Children))
		for i, c := range w.Children {
			children[i] = cloneWidget(c)
		}
		w.Children = children
	}
	return w
}

func cloneMethod(m *apk.Method) *apk.Method {
	c := *m
	c.Statements = slices.Clone(m.Statements)
	return &c
}

// applyAppIREdit makes one edit of app in place. An edit whose target does
// not exist does nothing.
func applyAppIREdit(app *apk.App, e appIREdit) {
	if len(app.Releases) == 0 {
		return
	}
	r := app.Releases[int(e.r)%len(app.Releases)]
	at := int(e.at)
	switch e.op {
	case editDropClass, editRenameClass, editDupClass:
		if len(r.Classes) == 0 {
			return
		}
		i := at % len(r.Classes)
		c := r.Classes[i]
		switch e.op {
		case editDropClass:
			r.Classes = slices.Delete(r.Classes, i, i+1)
		case editRenameClass:
			names := make([]string, len(r.Classes))
			for k, o := range r.Classes {
				names[k] = o.Name
			}
			c.Name = rename(c.Name, e.pick, names)
			for _, m := range c.Methods {
				m.Class = c.Name
			}
		case editDupClass:
			dup := *c
			dup.Methods = make([]*apk.Method, len(c.Methods))
			for k, m := range c.Methods {
				dup.Methods[k] = cloneMethod(m)
			}
			r.Classes = append(r.Classes, &dup)
		}
	case editDropMethod, editRenameMethod, editDupMethod:
		var refs [][2]int
		for ci, c := range r.Classes {
			for mi := range c.Methods {
				refs = append(refs, [2]int{ci, mi})
			}
		}
		if len(refs) == 0 {
			return
		}
		ref := refs[at%len(refs)]
		c := r.Classes[ref[0]]
		m := c.Methods[ref[1]]
		switch e.op {
		case editDropMethod:
			c.Methods = slices.Delete(c.Methods, ref[1], ref[1]+1)
		case editRenameMethod:
			names := make([]string, len(c.Methods))
			for k, o := range c.Methods {
				names[k] = o.Name
			}
			m.Name = rename(m.Name, e.pick, names)
		case editDupMethod:
			c.Methods = append(c.Methods, cloneMethod(m))
		}
	case editDropWidget, editRenameWidget, editDupWidget:
		ws := widgets(r)
		if len(ws) == 0 {
			return
		}
		ref := ws[at%len(ws)]
		w := ref.get(r)
		switch e.op {
		case editDropWidget:
			if ref.parent == nil {
				r.Layouts = slices.Delete(r.Layouts, ref.idx, ref.idx+1)
			} else {
				ref.parent.Children = slices.Delete(ref.parent.Children, ref.idx, ref.idx+1)
			}
		case editRenameWidget:
			var names []string
			for _, o := range ws {
				names = append(names, o.get(r).ID)
			}
			if e.pick&4 == 0 {
				w.ID = rename(w.ID, e.pick>>3, names)
			} else {
				w.Text = rename(w.Text, e.pick>>3, names)
			}
		case editDupWidget:
			if ref.parent == nil {
				r.Layouts = append(r.Layouts, apk.Layout{ID: r.Layouts[ref.idx].ID, Root: cloneWidget(*w)})
			} else {
				ref.parent.Children = append(ref.parent.Children, cloneWidget(*w))
			}
		}
	case editDropString, editRenameString, editDupString:
		keys := make([]string, 0, len(r.StringRes))
		for k := range r.StringRes {
			keys = append(keys, k)
		}
		if len(keys) == 0 {
			return
		}
		sort.Strings(keys)
		k := keys[at%len(keys)]
		v := r.StringRes[k]
		switch e.op {
		case editDropString:
			delete(r.StringRes, k)
		case editRenameString:
			delete(r.StringRes, k)
			r.StringRes[rename(k, e.pick, keys)] = v
		case editDupString:
			r.StringRes[k+"_copy"] = v
		}
	case editEmptyRelease:
		r.Classes, r.Layouts, r.StringRes = nil, nil, nil
	}
}

// appIRSeeds are the FuzzAppIR seeds: no edit, one of each edit, and a
// chain that renames into a collision and then duplicates the colliding
// class.
func appIRSeeds() [][]byte {
	seeds := [][]byte{nil}
	for op := byte(0); op < numAppIREdits; op++ {
		seeds = append(seeds, encodeAppIREdits(appIREdit{op: op, r: 1, at: 3, pick: 1}))
	}
	return append(seeds, encodeAppIREdits(
		appIREdit{op: editRenameClass, r: 0, at: 2, pick: 5},
		appIREdit{op: editDupClass, r: 0, at: 2},
		appIREdit{op: editRenameMethod, r: 0, at: 7, pick: 2},
		appIREdit{op: editRenameWidget, r: 1, at: 4, pick: 12},
	))
}

// FuzzAppIR makes fuzzer-chosen edits of a small generated app — drop,
// rename or duplicate classes, methods, widgets and strings, or empty a
// release — and compiles (EncodeSnapshot) and loads (LoadSnapshotBytes)
// the result. Every rejection must be typed, nothing may panic, and when
// both accept the app, the fixed reviews must localize and rank the same
// from the built snapshot and from the loaded image, published both after
// the first release and after the last.
func FuzzAppIR(f *testing.F) {
	for _, seed := range appIRSeeds() {
		f.Add(seed)
	}
	fx := appIRBase()
	f.Fuzz(func(t *testing.T, data []byte) {
		app, err := apk.DecodeJSON(fx.appJSON)
		if err != nil {
			t.Fatalf("decode the base app: %v", err)
		}
		for _, e := range appIREdits(data) {
			applyAppIREdit(app, e)
		}
		sn := NewSnapshot()
		img, err := EncodeSnapshot(sn, app)
		if err != nil {
			if !typedAppError(err) {
				t.Fatalf("EncodeSnapshot returned an untyped error: %v", err)
			}
			return
		}
		loaded, lapp, err := LoadSnapshotBytes(img)
		if err != nil {
			if !typedLoadError(err) {
				t.Fatalf("LoadSnapshotBytes returned an untyped error: %v", err)
			}
			return
		}
		built, fromImage := NewWithSnapshot(sn), NewWithSnapshot(loaded)
		times := []time.Time{
			app.Releases[0].ReleasedAt.Add(time.Hour),
			app.Releases[len(app.Releases)-1].ReleasedAt.Add(time.Hour),
		}
		for _, review := range fx.reviews {
			for _, when := range times {
				want := built.LocalizeReview(app, review, when)
				got := fromImage.LocalizeReview(lapp, review, when)
				if !reflect.DeepEqual(got.Mappings, want.Mappings) {
					t.Fatalf("review %q at %s: loaded mappings %v, built %v", review, when, got.Mappings, want.Mappings)
				}
				if !reflect.DeepEqual(got.Ranked, want.Ranked) {
					t.Fatalf("review %q at %s: loaded ranking %v, built %v", review, when, got.Ranked, want.Ranked)
				}
			}
		}
	})
}

// TestAppIRFixtureLocalizes: the unedited fixture exercises the comparison
// FuzzAppIR makes — its fixed reviews map classes of both releases.
func TestAppIRFixtureLocalizes(t *testing.T) {
	fx := appIRBase()
	app, err := apk.DecodeJSON(fx.appJSON)
	if err != nil {
		t.Fatal(err)
	}
	if len(app.Releases) < 2 || len(fx.reviews) < 3 {
		t.Fatalf("%d releases, %d reviews; want at least 2 and 3", len(app.Releases), len(fx.reviews))
	}
	s := New()
	for i, r := range app.Releases {
		mapped := 0
		for _, review := range fx.reviews {
			if len(s.LocalizeReview(app, review, r.ReleasedAt.Add(time.Hour)).Ranked) > 0 {
				mapped++
			}
		}
		if mapped == 0 {
			t.Errorf("release %d: no fixed review ranks a class", i)
		}
	}
}
