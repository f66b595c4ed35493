package apk

import (
	"fmt"
	"strings"
	"testing"
)

func TestValidateCleanApp(t *testing.T) {
	app := sampleApp()
	if issues := app.Validate(); len(issues) != 0 {
		t.Errorf("clean app has issues: %v", issues)
	}
}

func TestValidateFindsProblems(t *testing.T) {
	b := NewBuilder("com.bad", "Bad")
	b.Release("1.0", 1, day(0))
	b.Activity("com.bad.GhostActivity", "missing_layout")
	b.Layout("main", Widget{Type: "LinearLayout", Children: []Widget{
		{Type: "TextView", Text: "@string/nope"},
	}})
	b.Class("com.bad.A")
	b.Class("com.bad.A") // duplicate
	app := b.Build()
	// Method owned by the wrong class.
	app.Releases[0].Classes[0].Methods = append(app.Releases[0].Classes[0].Methods,
		&Method{Name: "m", Class: "com.bad.Other"})

	issues := app.Validate()
	wantFragments := []string{
		"duplicate class com.bad.A",
		"activity com.bad.GhostActivity has no class",
		"references missing layout missing_layout",
		`missing string resource "nope"`,
		"claims class com.bad.Other",
	}
	for _, frag := range wantFragments {
		found := false
		for _, issue := range issues {
			if strings.Contains(issue.String(), frag) {
				found = true
			}
		}
		if !found {
			t.Errorf("issues %v missing %q", issues, frag)
		}
	}
}

func TestValidateEmptyPackage(t *testing.T) {
	app := &App{}
	issues := app.Validate()
	if len(issues) != 1 || !strings.Contains(issues[0].Message, "no package") {
		t.Errorf("issues = %v", issues)
	}
}

// ValidationIssue describes one inconsistency found in an app IR.
type ValidationIssue struct {
	// Release is the version the issue was found in.
	Release string
	// Message describes the problem.
	Message string
}

func (i ValidationIssue) String() string {
	return fmt.Sprintf("%s: %s", i.Release, i.Message)
}

// Validate checks the structural invariants of an app IR: unique class
// names per release, activity declarations backed by classes, layout
// references that resolve, string-resource references that resolve, and
// method ownership consistency. It returns all issues found (empty for a
// well-formed app). The generated apps are held to it in generated_test.go.
func (a *App) Validate() []ValidationIssue {
	var issues []ValidationIssue
	add := func(release, format string, args ...interface{}) {
		issues = append(issues, ValidationIssue{
			Release: release,
			Message: fmt.Sprintf(format, args...),
		})
	}
	if a.Package == "" {
		add("-", "app has no package id")
	}
	if err := a.CheckReleaseOrder(); err != nil {
		oe := err.(*ReleaseOrderError)
		add(oe.Next, "%s", err.Error())
	}
	for _, r := range a.Releases {
		seen := make(map[string]struct{}, len(r.Classes))
		for _, c := range r.Classes {
			if _, dup := seen[c.Name]; dup {
				add(r.Version, "duplicate class %s", c.Name)
			}
			seen[c.Name] = struct{}{}
			for _, m := range c.Methods {
				if m.Class != c.Name {
					add(r.Version, "method %s claims class %s but is declared in %s",
						m.Name, m.Class, c.Name)
				}
			}
		}
		layouts := make(map[string]struct{}, len(r.Layouts))
		for _, l := range r.Layouts {
			layouts[l.ID] = struct{}{}
		}
		for _, act := range r.Manifest.Activities {
			if _, ok := seen[act.Name]; !ok {
				add(r.Version, "activity %s has no class", act.Name)
			}
			if act.LayoutID != "" {
				if _, ok := layouts[act.LayoutID]; !ok {
					add(r.Version, "activity %s references missing layout %s",
						act.Name, act.LayoutID)
				}
			}
		}
		// String-resource references in widgets must resolve.
		for _, l := range r.Layouts {
			l.Root.Walk(func(w *Widget) {
				for _, ref := range []string{w.Text, w.Hint} {
					id, ok := strings.CutPrefix(ref, "@string/")
					if !ok {
						continue
					}
					if _, exists := r.StringRes[id]; !exists {
						add(r.Version, "layout %s references missing string resource %q", l.ID, id)
					}
				}
			})
		}
	}
	return issues
}
