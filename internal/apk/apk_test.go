package apk

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"
)

func day(d int) time.Time {
	return time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, d)
}

func sampleApp() *App {
	b := NewBuilder("com.example.mail", "ExampleMail")
	b.Release("1.0", 1, day(0)).
		Permission("android.permission.INTERNET").
		LauncherActivity("com.example.mail.MainActivity", "main").
		Layout("main", Widget{Type: "LinearLayout", Children: []Widget{
			{Type: "Button", ID: "send_btn", Text: "@string/send_label"},
			{Type: "EditText", ID: "show_password", Hint: "password"},
		}}).
		StringRes("send_label", "Send")
	b.Class("com.example.mail.MainActivity").
		Method("onCreate",
			ConstString("s0", "welcome"),
			Invoke("", "android.widget.Toast", "makeText", "s0")).
		Method("sendMail",
			Invoke("", "java.net.URLConnection", "connect"))
	b.CopyRelease("1.1", 2, day(30))
	b.Class("com.example.mail.SyncService").
		Method("syncAll", Invoke("", "java.net.Socket", "connect"))
	return b.Build()
}

func TestStartingActivity(t *testing.T) {
	app := sampleApp()
	act, ok := app.Releases[0].StartingActivity()
	if !ok {
		t.Fatal("starting activity not found")
	}
	if act.Name != "com.example.mail.MainActivity" {
		t.Errorf("starting activity = %q", act.Name)
	}
}

func TestReleaseBefore(t *testing.T) {
	app := sampleApp()
	// A review written on day 10 maps to release 1.0 with no previous.
	cur, prev, ok := app.ReleaseBefore(day(10))
	if !ok || cur.Version != "1.0" || prev != nil {
		t.Errorf("day10: cur=%v prev=%v ok=%v", cur, prev, ok)
	}
	// A review written on day 40 maps to 1.1 with previous 1.0.
	cur, prev, ok = app.ReleaseBefore(day(40))
	if !ok || cur.Version != "1.1" || prev == nil || prev.Version != "1.0" {
		t.Errorf("day40: cur=%v prev=%v ok=%v", cur, prev, ok)
	}
	// A review before any release maps to nothing.
	if _, _, ok := app.ReleaseBefore(day(-5)); ok {
		t.Error("pre-release review should not map")
	}
}

func TestCopyReleaseIsDeep(t *testing.T) {
	app := sampleApp()
	r0, r1 := app.Releases[0], app.Releases[1]
	if len(r1.Classes) != len(r0.Classes)+1 {
		t.Fatalf("r1 classes = %d, want %d", len(r1.Classes), len(r0.Classes)+1)
	}
	// Mutating the copy must not affect the original.
	c1, _ := r1.FindClass("com.example.mail.MainActivity")
	c1.Methods[0].Statements = append(c1.Methods[0].Statements, Return())
	c0, _ := r0.FindClass("com.example.mail.MainActivity")
	if len(c0.Methods[0].Statements) == len(c1.Methods[0].Statements) {
		t.Error("CopyRelease shares statement slices")
	}
}

func TestResolveString(t *testing.T) {
	r := sampleApp().Releases[0]
	if got := r.ResolveString("@string/send_label"); got != "Send" {
		t.Errorf("resolve @string/send_label = %q", got)
	}
	if got := r.ResolveString("literal text"); got != "literal text" {
		t.Errorf("literal resolve = %q", got)
	}
	if got := r.ResolveString("@string/missing"); got != "" {
		t.Errorf("missing resource resolve = %q", got)
	}
}

func TestWidgetWalk(t *testing.T) {
	layout, ok := sampleApp().Releases[0].LayoutByID("main")
	if !ok {
		t.Fatal("layout main missing")
	}
	var ids []string
	layout.Root.Walk(func(w *Widget) {
		if w.ID != "" {
			ids = append(ids, w.ID)
		}
	})
	want := []string{"send_btn", "show_password"}
	if !reflect.DeepEqual(ids, want) {
		t.Errorf("walked ids = %v, want %v", ids, want)
	}
}

func TestSaveLoadJSON(t *testing.T) {
	app := sampleApp()
	path := filepath.Join(t.TempDir(), "app.json")
	if err := app.SaveJSON(path); err != nil {
		t.Fatalf("SaveJSON: %v", err)
	}
	loaded, err := LoadJSON(path)
	if err != nil {
		t.Fatalf("LoadJSON: %v", err)
	}
	if loaded.Package != app.Package || len(loaded.Releases) != len(app.Releases) {
		t.Errorf("roundtrip mismatch: %+v", loaded)
	}
	if loaded.Releases[1].Classes[0].Name != app.Releases[1].Classes[0].Name {
		t.Error("class roundtrip mismatch")
	}
}

// TestLoadJSONRejectsReversedReleases: an IR file whose releases are out
// of time order fails to load with a *ReleaseOrderError instead of letting
// ReleaseBefore match reviews to the wrong release and predecessor.
func TestLoadJSONRejectsReversedReleases(t *testing.T) {
	app := sampleApp()
	app.Releases[0], app.Releases[1] = app.Releases[1], app.Releases[0]
	path := filepath.Join(t.TempDir(), "app.json")
	if err := app.SaveJSON(path); err != nil {
		t.Fatalf("SaveJSON: %v", err)
	}
	_, err := LoadJSON(path)
	var oe *ReleaseOrderError
	if !errors.As(err, &oe) {
		t.Fatalf("LoadJSON = %v, want a *ReleaseOrderError", err)
	}
	if oe.Index != 1 || oe.Prev != "1.1" || oe.Next != "1.0" {
		t.Errorf("order error names index %d (%s -> %s), want 1 (1.1 -> 1.0)", oe.Index, oe.Prev, oe.Next)
	}
}

// TestLoadJSONRejectsUnservableShapes: IR JSON that extraction would
// dereference through a nil pointer (a null release, class or method), a
// statement opcode the binary codec refuses, an app without a release, and
// bytes that are not a JSON app each fail with a typed error.
func TestLoadJSONRejectsUnservableShapes(t *testing.T) {
	const rel = `{"version":"1.0","versionCode":1,"releasedAt":"2020-01-01T00:00:00Z",`
	for _, tc := range []struct {
		name, json string
		shape      bool
	}{
		{"null class", `{"package":"p","releases":[` + rel + `"classes":[null]}]}`, true},
		{"null method", `{"package":"p","releases":[` + rel + `"classes":[{"name":"p.A","methods":[null]}]}]}`, true},
		{"undefined opcode", `{"package":"p","releases":[` + rel + `"classes":[{"name":"p.A","methods":[{"name":"m","class":"p.A","statements":[{"op":260}]}]}]}]}`, true},
		{"null release", `{"package":"p","releases":[null]}`, true},
		{"no release", `{"package":"p","releases":[]}`, true},
		{"not an app", `{"package":7}`, false},
	} {
		path := filepath.Join(t.TempDir(), "app.json")
		if err := os.WriteFile(path, []byte(tc.json), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadJSON(path)
		var se *ShapeError
		if tc.shape && !errors.As(err, &se) {
			t.Errorf("%s: LoadJSON = %v, want a *ShapeError", tc.name, err)
		}
		if !tc.shape && !errors.Is(err, ErrDecode) {
			t.Errorf("%s: LoadJSON = %v, want ErrDecode", tc.name, err)
		}
	}
}

func TestLoadJSONMissing(t *testing.T) {
	if _, err := LoadJSON(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestStatementConstructors(t *testing.T) {
	s := Invoke("r", "java.net.Socket", "connect", "a", "b")
	if !s.IsInvoke() || s.Callee() != "java.net.Socket.connect" {
		t.Errorf("invoke statement malformed: %+v", s)
	}
	if ConstString("s", "x").Op != OpConstString {
		t.Error("ConstString op wrong")
	}
	if got := Catch("E").Op.String(); got != "catch" {
		t.Errorf("op string = %q", got)
	}
}

// TestClassesNamed: every entry of a repeated class name, in declaration
// order, while FindClass keeps returning the first.
func TestClassesNamed(t *testing.T) {
	a1, b, a2 := &Class{Name: "p.A"}, &Class{Name: "p.B"}, &Class{Name: "p.A"}
	r := &Release{Classes: []*Class{a1, b, a2}}
	if got := r.ClassesNamed("p.A"); len(got) != 2 || got[0] != a1 || got[1] != a2 {
		t.Errorf("ClassesNamed(p.A) = %v, want both entries in order", got)
	}
	if got := r.ClassesNamed("p.B"); len(got) != 1 || got[0] != b {
		t.Errorf("ClassesNamed(p.B) = %v", got)
	}
	if got := r.ClassesNamed("p.C"); got != nil {
		t.Errorf("ClassesNamed(p.C) = %v, want nil", got)
	}
	if c, _ := r.FindClass("p.A"); c != a1 {
		t.Error("FindClass no longer returns the first entry")
	}
}

func TestMethodQualifiedName(t *testing.T) {
	m := &Method{Name: "getEmail", Class: "com.fsck.k9.Account"}
	if m.QualifiedName() != "com.fsck.k9.Account.getEmail" {
		t.Errorf("QualifiedName = %q", m.QualifiedName())
	}
}

func TestClassShortName(t *testing.T) {
	c := &Class{Name: "com.example.app.ui.LoginActivity"}
	if c.ShortName() != "LoginActivity" {
		t.Errorf("ShortName = %q", c.ShortName())
	}
}

// IsInvoke reports whether the statement is an invocation.
func (s Statement) IsInvoke() bool { return s.Op == OpInvoke }

// Callee returns "class.method" for invoke statements.
func (s Statement) Callee() string { return s.InvokeClass + "." + s.InvokeMethod }

// RemoveClass deletes a class from the current release (app evolution).
func (b *Builder) RemoveClass(name string) *Builder {
	classes := b.cur.Classes[:0]
	for _, c := range b.cur.Classes {
		if c.Name != name {
			classes = append(classes, c)
		}
	}
	b.cur.Classes = classes
	return b
}

// ClassNames returns all class names, sorted. The sorted list is cached in
// the release index; callers receive a private copy.
func (r *Release) ClassNames() []string {
	names := make([]string, len(r.Classes))
	for i, c := range r.Classes {
		names[i] = c.Name
	}
	sort.Strings(names)
	return names
}

func TestRemoveClass(t *testing.T) {
	b := NewBuilder("p", "n")
	b.Release("1", 1, day(0))
	b.Class("p.A")
	b.Class("p.B")
	b.RemoveClass("p.A")
	app := b.Build()
	if names := app.Releases[0].ClassNames(); !reflect.DeepEqual(names, []string{"p.B"}) {
		t.Errorf("classes after removal = %v", names)
	}
}

func TestSortReleases(t *testing.T) {
	b := NewBuilder("p", "n")
	b.Release("2.0", 2, day(10))
	b.Release("1.0", 1, day(0))
	app := b.Build()
	if app.Releases[0].Version != "1.0" {
		t.Error("releases not sorted by time")
	}
	if app.Latest().Version != "2.0" {
		t.Errorf("Latest = %q", app.Latest().Version)
	}
}
