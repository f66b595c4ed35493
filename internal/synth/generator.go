package synth

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"reviewsolver/internal/apk"
	"reviewsolver/internal/ctxinfo"
)

// Fault is a planted defect: a feature of the app that misbehaves. Its
// Classes are the ground-truth problematic code files.
type Fault struct {
	ID      int
	Feature string
	// Classes are the fully qualified ground-truth classes (activity +
	// worker of the broken feature).
	Classes []string
	// FixedIn is the release index whose code change fixes the fault
	// (-1 when never fixed in the generated history).
	FixedIn int
}

// Review is one generated user review with its generator-side truth.
type Review struct {
	ID          int
	Text        string
	Score       int
	PublishedAt time.Time
	// IsError is the generator truth: does the review describe a function
	// error?
	IsError bool
	// FaultID links an error review to its fault (-1 for error reviews
	// without context and all non-error reviews).
	FaultID int
	// Context is the context-information style the review was written in.
	Context ctxinfo.Type
}

// BugReport is an issue-tracker entry for a fault (Fig. 5 ground truth).
type BugReport struct {
	ID      int
	FaultID int
	Title   string
	Body    string
	// FixedClasses are the code files the developers changed to fix it.
	FixedClasses []string
}

// ReleaseNote documents one release's fixes (Fig. 6 ground truth).
type ReleaseNote struct {
	Version string
	Lines   []string
	// FaultIDs are the faults this release fixes.
	FaultIDs []int
	// ChangedClasses are the classes apk.DiffReleases lists against the
	// previous release; the slice is shared with its memo, so read only.
	ChangedClasses []string
}

// AppData bundles everything generated for one app.
type AppData struct {
	Info         AppInfo
	App          *apk.App
	Faults       []Fault
	Reviews      []Review
	BugReports   []BugReport
	ReleaseNotes []ReleaseNote
}

// FaultByID returns the fault with the given id.
func (d *AppData) FaultByID(id int) (Fault, bool) {
	for _, f := range d.Faults {
		if f.ID == id {
			return f, true
		}
	}
	return Fault{}, false
}

// ErrorReviews returns the reviews whose generator truth is "function
// error".
func (d *AppData) ErrorReviews() []Review {
	var out []Review
	for _, r := range d.Reviews {
		if r.IsError {
			out = append(out, r)
		}
	}
	return out
}

// epoch is the start of the generated release timeline.
var epoch = time.Date(2017, 1, 15, 0, 0, 0, 0, time.UTC)

// GenerateApp builds one app with its reviews and ground-truth documents.
func GenerateApp(spec appSpec, seed int64) *AppData {
	rng := rand.New(rand.NewSource(seed))
	feats := selectFeatures(spec, rng)

	data := &AppData{Info: specInfos([]appSpec{spec})[0]}

	// Faults: one per feature (beyond the common pair every app shares,
	// which also can break).
	for i, f := range feats {
		fault := Fault{
			ID:      i,
			Feature: f.name,
			Classes: []string{
				spec.pkg + "." + f.activityBase,
				spec.pkg + "." + f.workerBase,
			},
			FixedIn: -1,
		}
		if spec.versions > 1 {
			fault.FixedIn = 1 + i%(spec.versions-1)
		}
		data.Faults = append(data.Faults, fault)
	}

	data.App = buildApp(spec, feats, data.Faults)
	data.Reviews = generateReviews(spec, feats, data.Faults, data.App, rng)

	if spec.hasBugReports {
		data.BugReports = generateBugReports(feats, data.Faults)
	}
	if spec.hasRelNotes {
		data.ReleaseNotes = generateReleaseNotes(data.App, feats, data.Faults)
	}
	return data
}

// selectFeatures picks the app's feature set: the common pair plus every
// domain feature, plus one or two borrowed from other domains for variety.
func selectFeatures(spec appSpec, rng *rand.Rand) []feature {
	feats := append([]feature(nil), commonFeatures...)
	feats = append(feats, featureLibrary[spec.domain]...)
	domains := make([]string, 0, len(featureLibrary))
	for d := range featureLibrary {
		domains = append(domains, d)
	}
	sort.Strings(domains)
	for i := 0; i < 2; i++ {
		d := domains[rng.Intn(len(domains))]
		if d == spec.domain {
			continue
		}
		pool := featureLibrary[d]
		cand := pool[rng.Intn(len(pool))]
		dup := false
		for _, f := range feats {
			if f.name == cand.name {
				dup = true
			}
		}
		if !dup {
			feats = append(feats, cand)
		}
	}
	return feats
}

// buildApp assembles the APK release history for the feature set.
func buildApp(spec appSpec, feats []feature, faults []Fault) *apk.App {
	b := apk.NewBuilder(spec.pkg, spec.name)
	released := epoch
	b.Release("1.0", 1, released)
	b.Permission("android.permission.INTERNET")

	for i, f := range feats {
		addFeature(b, spec.pkg, f, i == 0)
	}
	// Filler utility classes shared across features.
	b.Class(spec.pkg+".util.Preferences").
		Method("loadSettings",
			apk.Invoke("v", "android.content.SharedPreferences", "getString")).
		Method("saveSettings",
			apk.Invoke("", "android.content.SharedPreferences$Editor", "putString"))
	b.Class(spec.pkg+".util.Logger").
		Method("logEvent", apk.ConstString("tag", spec.name), apk.Return())

	for v := 1; v < spec.versions; v++ {
		released = released.AddDate(0, 2, (v*7)%28)
		b.CopyRelease(fmt.Sprintf("1.%d", v), v+1, released)
		// Apply the fixes scheduled for this release: touch the worker
		// class of each fixed fault.
		for _, fault := range faults {
			if fault.FixedIn != v {
				continue
			}
			r := b.CurrentRelease()
			worker := fault.Classes[len(fault.Classes)-1]
			if c, ok := r.FindClass(worker); ok && len(c.Methods) > 0 {
				c.Methods[0].Statements = append(c.Methods[0].Statements,
					apk.ConstString("fixmarker", "fixed in 1."+fmt.Sprint(v)),
					apk.Return())
			}
		}
		// Organic growth: one new helper class per release.
		b.Class(fmt.Sprintf("%s.util.Helper%d", spec.pkg, v)).
			Method("assist", apk.Return())
	}
	return b.Build()
}

// addFeature emits the activity + worker classes, layout, and resources of
// one feature into the current release.
func addFeature(b *apk.Builder, pkg string, f feature, launcher bool) {
	activity := pkg + "." + f.activityBase
	worker := pkg + "." + f.workerBase
	layoutID := strings.ToLower(f.activityBase)

	if launcher {
		b.LauncherActivity(activity, layoutID)
	} else {
		b.Activity(activity, layoutID)
	}

	// Layout with the feature's widgets.
	children := make([]apk.Widget, 0, len(f.widgetIDs))
	for i, id := range f.widgetIDs {
		w := apk.Widget{Type: widgetTypeFor(id), ID: id}
		if i < len(f.visibleTexts) {
			resID := layoutID + "_text_" + fmt.Sprint(i)
			b.StringRes(resID, f.visibleTexts[i])
			w.Text = "@string/" + resID
		}
		children = append(children, w)
	}
	b.Layout(layoutID, apk.Widget{Type: "LinearLayout", Children: children})

	// Activity: lifecycle + click handler delegating to the worker.
	workerMethod := methodNameFor(f)
	b.Class(activity).
		Method("onCreate",
			apk.Invoke("", "android.app.Activity", "setTitle"),
			apk.Invoke("", pkg+".util.Preferences", "loadSettings")).
		Method("onClick",
			apk.Invoke("", worker, workerMethod)).
		Method("onResume", apk.Return())

	// Worker: the feature implementation.
	stmts := make([]apk.Statement, 0, 12)
	if f.uri != "" {
		stmts = append(stmts,
			apk.ConstString("uri", f.uri),
			apk.Invoke("cursor", "android.content.ContentResolver", "query", "uri"))
	}
	if f.intentAction != "" {
		stmts = append(stmts,
			apk.ConstString("action", f.intentAction),
			apk.NewObj("intent", "android.content.Intent"),
			apk.Invoke("", "android.app.Activity", "startActivityForResult", "action", "intent"))
	}
	for _, api := range f.apis {
		stmts = append(stmts, apk.Invoke("r", api.Class, api.Method))
	}
	if f.errorMessage != "" {
		stmts = append(stmts,
			apk.ConstString("err", f.errorMessage),
			apk.Invoke("", "android.widget.Toast", "makeText", "err"))
	}
	if f.exception != "" {
		stmts = append(stmts, apk.Catch(f.exception))
	}
	stmts = append(stmts, apk.Return())

	b.Class(worker).
		Method(workerMethod, stmts...).
		Method("cancel"+upperFirst(f.object), apk.Return())
}

// methodNameFor converts "send"+"email" into "sendEmail".
func methodNameFor(f feature) string {
	obj := strings.ReplaceAll(f.object, " ", "")
	return f.verb + upperFirst(obj)
}

func upperFirst(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}

func widgetTypeFor(id string) string {
	switch {
	case strings.HasSuffix(id, "_btn"):
		return "Button"
	case strings.HasSuffix(id, "_edit") || strings.HasSuffix(id, "_search"):
		return "EditText"
	case strings.HasSuffix(id, "_list") || strings.HasSuffix(id, "_grid"):
		return "ListView"
	case strings.HasSuffix(id, "_cb") || strings.HasSuffix(id, "_toggle"):
		return "CheckBox"
	case strings.HasSuffix(id, "_sb"):
		return "SeekBar"
	case strings.HasSuffix(id, "_sp"):
		return "Spinner"
	case strings.HasSuffix(id, "_view"):
		return "TextView"
	default:
		return "TextView"
	}
}
