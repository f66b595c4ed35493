// Package gui recovers the GUI structure of each activity, standing in for
// GATOR (§3.3.2): it joins the manifest (activities), the layout resources
// (widget trees, parent–child structure), and the string resources (text
// values), and additionally infers dynamically-set texts from the
// activity's code (const-strings flowing into setText/setHint/setTitle),
// which is GATOR's constraint-graph role in this IR.
//
// Two kinds of label information come out of the recovery (§3.3.2):
//
//   - visible labels: the android:text / android:hint values shown on
//     screen, with "@string/…" references resolved;
//   - invisible labels: widget-id words, split on underscores/camel case
//     with UI abbreviations expanded ("show_password" → "show password",
//     "reply_btn" → "reply button").
package gui

import (
	"sort"
	"strings"

	"reviewsolver/internal/apg"
	"reviewsolver/internal/apk"
	"reviewsolver/internal/textproc"
)

// ActivityGUI is the recovered GUI of one activity.
type ActivityGUI struct {
	// Activity is the fully qualified activity class name.
	Activity string
	// LayoutID is the inflated layout resource ("" if none declared).
	LayoutID string
	// Visible holds the texts shown in the GUI (resolved).
	Visible []string
	// WidgetIDs holds the raw widget id names in the layout.
	WidgetIDs []string
	// InvisibleWords holds, per widget id, the expanded word list.
	InvisibleWords [][]string
}

// VisibleWords returns the lower-cased word set of all visible labels.
func (a *ActivityGUI) VisibleWords() map[string]struct{} {
	out := make(map[string]struct{})
	for _, text := range a.Visible {
		for _, w := range textproc.Words(text) {
			out[w] = struct{}{}
		}
	}
	return out
}

// ContainsVisibleWord reports whether any visible label contains the word.
func (a *ActivityGUI) ContainsVisibleWord(word string) bool {
	_, ok := a.VisibleWords()[strings.ToLower(word)]
	return ok
}

// dynamicTextAPIs are the setters whose string arguments become visible
// labels at runtime.
var dynamicTextAPIs = []struct{ class, method string }{
	{"android.widget.TextView", "setText"},
	{"android.widget.TextView", "setHint"},
	{"android.widget.EditText", "setText"},
	{"android.widget.EditText", "setHint"},
	{"android.widget.Button", "setText"},
	{"android.app.AlertDialog$Builder", "setTitle"},
	{"android.app.Activity", "setTitle"},
}

// Recover reconstructs the GUI of every declared activity of a release.
// The graph parameter supplies the code-side (dynamically created) texts;
// pass nil to recover from layouts only.
func Recover(r *apk.Release, g *apg.Graph) []ActivityGUI {
	out := make([]ActivityGUI, 0, len(r.Manifest.Activities))
	for _, decl := range r.Manifest.Activities {
		out = append(out, recoverActivity(r, g, decl))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Activity < out[j].Activity })
	return out
}

// recoverActivity reconstructs the GUI of a single declared activity —
// Recover's per-declaration step.
func recoverActivity(r *apk.Release, g *apg.Graph, decl apk.ActivityDecl) ActivityGUI {
	a := ActivityGUI{Activity: decl.Name, LayoutID: decl.LayoutID}
	if layout, ok := r.LayoutByID(decl.LayoutID); ok {
		layout.Root.Walk(func(w *apk.Widget) {
			if t := r.ResolveString(w.Text); t != "" {
				a.Visible = append(a.Visible, t)
			}
			if h := r.ResolveString(w.Hint); h != "" {
				a.Visible = append(a.Visible, h)
			}
			if w.ID != "" {
				a.WidgetIDs = append(a.WidgetIDs, w.ID)
				words := textproc.ExpandUIWords(textproc.SplitIdentifier(w.ID))
				a.InvisibleWords = append(a.InvisibleWords, words)
			}
		})
	}
	if g != nil {
		a.Visible = append(a.Visible, dynamicTexts(g, decl.Name)...)
		ids, words := dynamicWidgets(g, decl.Name)
		a.WidgetIDs = append(a.WidgetIDs, ids...)
		a.InvisibleWords = append(a.InvisibleWords, words...)
	}
	return a
}

// dynamicTexts collects const-strings flowing into text setters from
// methods of the activity class.
func dynamicTexts(g *apg.Graph, activity string) []string {
	var out []string
	for _, api := range dynamicTextAPIs {
		for _, site := range g.CallSitesOf(api.class, api.method) {
			if site.Class() != activity {
				continue
			}
			out = append(out, g.BackwardStrings(site)...)
		}
	}
	sort.Strings(out)
	return out
}

// dynamicWidgets infers widgets the activity creates in code (GATOR's
// constraint-graph inference): `new android.widget.Button` allocations whose
// local variable name doubles as the widget's invisible label
// ("quotedTextEdit" → quoted text edit).
func dynamicWidgets(g *apg.Graph, activity string) (ids []string, words [][]string) {
	for _, m := range g.Methods() {
		if m.Class != activity {
			continue
		}
		for _, st := range m.Statements {
			if st.Op != apk.OpNew || st.Def == "" {
				continue
			}
			if !strings.HasPrefix(st.InvokeClass, "android.widget.") {
				continue
			}
			ids = append(ids, st.Def)
			words = append(words, textproc.ExpandUIWords(textproc.SplitIdentifier(st.Def)))
		}
	}
	return ids, words
}

// FindByVisibleWord returns the activities whose visible labels contain the
// given word (§4.1.2 case 1 and §4.1.3 type search, §4.1.5 registration
// search).
func FindByVisibleWord(guis []ActivityGUI, word string) []string {
	var out []string
	for i := range guis {
		if guis[i].ContainsVisibleWord(word) {
			out = append(out, guis[i].Activity)
		}
	}
	return out
}

// registrationPhrases are the account-registration texts of §4.1.5.
var registrationPhrases = []string{"sign in", "login", "log in", "register", "sign up", "create account"}

// FindRegistrationActivities returns activities whose visible text contains
// account-registration phrases (§4.1.5).
func FindRegistrationActivities(guis []ActivityGUI) []string {
	var out []string
	for i := range guis {
		joined := " " + strings.ToLower(strings.Join(guis[i].Visible, " | ")) + " "
		for _, p := range registrationPhrases {
			if strings.Contains(joined, p) {
				out = append(out, guis[i].Activity)
				break
			}
		}
	}
	return out
}
