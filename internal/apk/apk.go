// Package apk defines the app intermediate representation that stands in
// for real APK files: the AndroidManifest (permissions, activities, intent
// filters), the Dex code (classes, methods, statements), layout resources,
// and string resources, across multiple released versions (§3.3.1: all
// versions of the APK with their release times).
//
// The static-analysis package (internal/apg) consumes this IR the way
// Vulhunter consumes real Dex bytecode: statements carry enough structure
// (definitions, uses, string constants, invocations) to build an AST, a
// method call graph, and a data dependency graph, and to run backward taint
// analysis.
package apk

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// App is a mobile application with its version history.
type App struct {
	// Package is the application id, e.g. "com.fsck.k9".
	Package string `json:"package"`
	// Name is the human-readable app name, e.g. "K-9 Mail".
	Name string `json:"name"`
	// Releases holds all released versions, sorted by release time.
	Releases []*Release `json:"releases"`
}

// Release is one released APK version.
type Release struct {
	// Version is the human version string, e.g. "5.2".
	Version string `json:"version"`
	// VersionCode is the monotonically increasing version code.
	VersionCode int `json:"versionCode"`
	// ReleasedAt is the publication time on the app market.
	ReleasedAt time.Time `json:"releasedAt"`
	// Manifest is the parsed AndroidManifest.xml.
	Manifest Manifest `json:"manifest"`
	// Classes are the Dex classes (third-party libraries excluded).
	Classes []*Class `json:"classes"`
	// Layouts are the layout resources.
	Layouts []Layout `json:"layouts"`
	// StringRes maps string resource ids to their values
	// (res/values/strings.xml).
	StringRes map[string]string `json:"stringRes"`

	// idx caches the class/layout lookup tables. It is built lazily on
	// first use and rebuilt when the Classes or Layouts slices are observed
	// to have changed shape; see releaseIndex for the exact staleness rule.
	idx atomic.Pointer[releaseIndex]
}

// releaseIndex is the lazily-built lookup structure behind FindClass,
// ClassesNamed and LayoutByID, and the home of the DiffReleases memo. A
// Release is mutated only while it is being assembled (Builder, synth
// generator) and is read concurrently only after assembly settles, so the
// index validates itself against the slice shape (length plus boundary
// elements) instead of requiring explicit invalidation: every mutation the
// Builder can express — appending classes, filtering one out, appending
// layouts — changes at least one of those.
type releaseIndex struct {
	// byName maps a class name to the position of its first entry in
	// Classes.
	byName map[string]int
	// repeated lists every entry of a class name the release declares more
	// than once, in declaration order; nil when every name is unique.
	repeated                map[string][]*Class
	layouts                 map[string]int
	nClasses, nLayouts      int
	firstClass, lastClass   *Class
	firstLayout, lastLayout string
	// diff memoizes DiffReleases(prev, this release) for the latest prev.
	diff atomic.Pointer[releaseDiff]
}

func (r *Release) index() *releaseIndex {
	idx := r.idx.Load()
	if idx != nil && idx.fresh(r) {
		return idx
	}
	idx = &releaseIndex{
		byName:   make(map[string]int, len(r.Classes)),
		layouts:  make(map[string]int, len(r.Layouts)),
		nClasses: len(r.Classes),
		nLayouts: len(r.Layouts),
	}
	for i, c := range r.Classes {
		// First declaration wins, matching the old linear scan.
		first, dup := idx.byName[c.Name]
		if !dup {
			idx.byName[c.Name] = i
			continue
		}
		if idx.repeated == nil {
			idx.repeated = make(map[string][]*Class)
		}
		if idx.repeated[c.Name] == nil {
			idx.repeated[c.Name] = []*Class{r.Classes[first]}
		}
		idx.repeated[c.Name] = append(idx.repeated[c.Name], c)
	}
	for i, l := range r.Layouts {
		if _, dup := idx.layouts[l.ID]; !dup {
			idx.layouts[l.ID] = i
		}
	}
	if idx.nClasses > 0 {
		idx.firstClass, idx.lastClass = r.Classes[0], r.Classes[idx.nClasses-1]
	}
	if idx.nLayouts > 0 {
		idx.firstLayout, idx.lastLayout = r.Layouts[0].ID, r.Layouts[idx.nLayouts-1].ID
	}
	r.idx.Store(idx)
	return idx
}

func (x *releaseIndex) fresh(r *Release) bool {
	if x.nClasses != len(r.Classes) || x.nLayouts != len(r.Layouts) {
		return false
	}
	if x.nClasses > 0 &&
		(x.firstClass != r.Classes[0] || x.lastClass != r.Classes[x.nClasses-1]) {
		return false
	}
	if x.nLayouts > 0 &&
		(x.firstLayout != r.Layouts[0].ID || x.lastLayout != r.Layouts[x.nLayouts-1].ID) {
		return false
	}
	return true
}

// Manifest models AndroidManifest.xml.
type Manifest struct {
	Package     string         `json:"package"`
	Permissions []string       `json:"permissions"`
	Activities  []ActivityDecl `json:"activities"`
}

// ActivityDecl declares an activity with its intent filters and layout.
type ActivityDecl struct {
	// Name is the fully qualified activity class name.
	Name string `json:"name"`
	// IntentFilters declare the intents the activity handles.
	IntentFilters []IntentFilter `json:"intentFilters"`
	// LayoutID names the layout resource the activity inflates
	// (the IR shortcut for setContentView).
	LayoutID string `json:"layoutId"`
}

// IntentFilter is one <intent-filter> element.
type IntentFilter struct {
	Actions    []string `json:"actions"`
	Categories []string `json:"categories"`
}

// Intent filter constants for the starting activity (§3.3.2).
const (
	ActionMain       = "android.intent.action.MAIN"
	CategoryLauncher = "android.intent.category.LAUNCHER"
)

// Class is a Dex class.
type Class struct {
	// Name is the fully qualified class name.
	Name string `json:"name"`
	// Super is the superclass name ("" for java.lang.Object).
	Super string `json:"super"`
	// Methods are the declared methods.
	Methods []*Method `json:"methods"`
}

// ShortName returns the class name without its package.
func (c *Class) ShortName() string {
	if i := strings.LastIndexByte(c.Name, '.'); i >= 0 {
		return c.Name[i+1:]
	}
	return c.Name
}

// Method is a Dex method with its statement list.
type Method struct {
	// Name is the method name, e.g. "getEmail" or "onCreate".
	Name string `json:"name"`
	// Class is the fully qualified name of the declaring class.
	Class string `json:"class"`
	// Statements is the straight-line statement list (the IR's AST body).
	Statements []Statement `json:"statements"`
}

// QualifiedName returns "class.method".
func (m *Method) QualifiedName() string { return m.Class + "." + m.Name }

// Op is a statement opcode.
type Op int

// Statement opcodes. The subset mirrors what the paper's extraction needs:
// string constants (error messages, URIs, intent actions), invocations
// (APIs, app methods), assignments (data dependencies), and throw/catch
// (exception localization).
const (
	OpConstString Op = iota + 1
	OpNew
	OpAssign
	OpInvoke
	OpThrow
	OpCatch
	OpReturn
)

// String returns the opcode mnemonic.
func (o Op) String() string {
	switch o {
	case OpConstString:
		return "const-string"
	case OpNew:
		return "new"
	case OpAssign:
		return "assign"
	case OpInvoke:
		return "invoke"
	case OpThrow:
		return "throw"
	case OpCatch:
		return "catch"
	case OpReturn:
		return "return"
	default:
		return "?"
	}
}

// Statement is one IR statement.
type Statement struct {
	// Op is the opcode.
	Op Op `json:"op"`
	// Def is the local variable the statement defines ("" if none).
	Def string `json:"def,omitempty"`
	// Uses are the local variables the statement reads.
	Uses []string `json:"uses,omitempty"`
	// Const is the string literal of a const-string statement.
	Const string `json:"const,omitempty"`
	// InvokeClass/InvokeMethod name the callee of an invoke statement.
	InvokeClass  string `json:"invokeClass,omitempty"`
	InvokeMethod string `json:"invokeMethod,omitempty"`
	// Exception is the exception type of a throw/catch statement.
	Exception string `json:"exception,omitempty"`
}

// Layout is a layout resource with its widget tree.
type Layout struct {
	// ID is the layout resource name, e.g. "account_setup_basics".
	ID string `json:"id"`
	// Root is the root widget.
	Root Widget `json:"root"`
}

// Widget is a GUI component in a layout tree.
type Widget struct {
	// Type is the widget class, e.g. "Button", "EditText", "LinearLayout".
	Type string `json:"type"`
	// ID is the android:id name, e.g. "show_password" ("" if unset).
	ID string `json:"id,omitempty"`
	// Text is the android:text value — either a literal or a
	// "@string/<id>" resource reference.
	Text string `json:"text,omitempty"`
	// Hint is the android:hint value, same encoding as Text.
	Hint string `json:"hint,omitempty"`
	// Children are the nested widgets.
	Children []Widget `json:"children,omitempty"`
}

// Walk visits the widget and all its descendants in depth-first order.
func (w *Widget) Walk(visit func(*Widget)) {
	visit(w)
	for i := range w.Children {
		w.Children[i].Walk(visit)
	}
}

// FindClass returns the class with the given fully qualified name. Lookups
// go through the lazily-built class index: O(1) after the first call
// instead of a linear scan per query.
func (r *Release) FindClass(name string) (*Class, bool) {
	i, ok := r.index().byName[name]
	if !ok {
		return nil, false
	}
	return r.Classes[i], true
}

// ClassesNamed returns every class entry declared under name, in
// declaration order. A release may repeat a class name; FindClass returns
// only the first entry. The returned slice is shared and must not be
// modified.
func (r *Release) ClassesNamed(name string) []*Class {
	idx := r.index()
	if all, ok := idx.repeated[name]; ok {
		return all
	}
	if i, ok := idx.byName[name]; ok {
		return r.Classes[i : i+1 : i+1]
	}
	return nil
}

// StartingActivity returns the activity declared with MAIN/LAUNCHER
// (§3.3.2), or false when none is declared.
func (r *Release) StartingActivity() (ActivityDecl, bool) {
	for _, a := range r.Manifest.Activities {
		for _, f := range a.IntentFilters {
			hasMain, hasLauncher := false, false
			for _, act := range f.Actions {
				if act == ActionMain {
					hasMain = true
				}
			}
			for _, cat := range f.Categories {
				if cat == CategoryLauncher {
					hasLauncher = true
				}
			}
			if hasMain && hasLauncher {
				return a, true
			}
		}
	}
	return ActivityDecl{}, false
}

// ResolveString resolves a text attribute: a "@string/<id>" reference is
// looked up in the string resources; a literal is returned as-is.
func (r *Release) ResolveString(value string) string {
	if id, ok := strings.CutPrefix(value, "@string/"); ok {
		if v, ok := r.StringRes[id]; ok {
			return v
		}
		return ""
	}
	return value
}

// LayoutByID returns the layout with the given resource id, via the same
// lazily-built index that backs FindClass.
func (r *Release) LayoutByID(id string) (Layout, bool) {
	if i, ok := r.index().layouts[id]; ok {
		return r.Layouts[i], true
	}
	return Layout{}, false
}

// ReleaseBefore returns the newest release published strictly before t —
// the version a review published at t was written about (§3.3.1) — and the
// release before that one (for update-diff localization). ok is false when
// no release predates t.
func (a *App) ReleaseBefore(t time.Time) (current, previous *Release, ok bool) {
	for _, r := range a.Releases {
		if r.ReleasedAt.Before(t) {
			previous = current
			current = r
			continue
		}
		break
	}
	return current, previous, current != nil
}

// Latest returns the most recent release, or nil for an empty history.
func (a *App) Latest() *Release {
	if len(a.Releases) == 0 {
		return nil
	}
	return a.Releases[len(a.Releases)-1]
}

// SortReleases orders the release history by release time then version code.
func (a *App) SortReleases() {
	sort.Slice(a.Releases, func(i, j int) bool {
		ri, rj := a.Releases[i], a.Releases[j]
		if !ri.ReleasedAt.Equal(rj.ReleasedAt) {
			return ri.ReleasedAt.Before(rj.ReleasedAt)
		}
		return ri.VersionCode < rj.VersionCode
	})
}

// SaveJSON writes the app (all releases) to a JSON file.
func (a *App) SaveJSON(path string) error {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal app %s: %w", a.Package, err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write app %s: %w", a.Package, err)
	}
	return nil
}

// ErrDecode reports app IR bytes that do not decode as a JSON app.
var ErrDecode = errors.New("apk: malformed app JSON")

// LoadJSON reads an app from a JSON file written by SaveJSON (see
// DecodeJSON).
func LoadJSON(path string) (*App, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read app: %w", err)
	}
	return DecodeJSON(data)
}

// DecodeJSON decodes an app written by SaveJSON and rejects what no
// snapshot could serve (Check): bytes that are not a JSON app fail with
// ErrDecode; an app without a release, with a null release, class or
// method, or with an undefined statement opcode fails with a *ShapeError;
// and a release history out of order fails with a *ReleaseOrderError,
// since ReleaseBefore would otherwise match reviews to the wrong release
// and predecessor.
func DecodeJSON(data []byte) (*App, error) {
	var a App
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrDecode, err)
	}
	if err := a.Check(); err != nil {
		return nil, err
	}
	return &a, nil
}
