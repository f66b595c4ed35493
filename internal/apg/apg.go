// Package apg builds the Android Property Graph of §3.3.2 over the app IR:
// the abstract syntax tree is the statement list itself, and this package
// adds the method call graph (MCG), the data dependency graph (DDG) with
// backward taint analysis, intent-target queries (the IccTA role), and the
// class dependency relation used for ranking ties (§4.3).
package apg

import (
	"slices"
	"sort"
	"sync"

	"reviewsolver/internal/apk"
)

// Site identifies one statement inside a method.
type Site struct {
	// Method is the enclosing method.
	Method *apk.Method
	// StmtIdx is the statement's index within the method body.
	StmtIdx int
}

// Statement returns the statement at the site.
func (s Site) Statement() apk.Statement { return s.Method.Statements[s.StmtIdx] }

// Class returns the fully qualified class owning the site.
func (s Site) Class() string { return s.Method.Class }

// ref names a method as (class, method) without concatenating the pair —
// the graph's maps key on it so Build never builds qualified-name strings
// for the hot framework-call case.
type ref struct{ class, method string }

// Graph is the property graph of one release.
type Graph struct {
	release *apk.Release
	// methods indexes app methods by (class, method).
	methods map[ref]*apk.Method
	// callSites indexes invocation sites by callee (class, method): the MCG
	// edges, read backwards from the callee. Ranking's dependency counts and
	// §4.2.3's exception callers are derived from it per query.
	callSites map[ref][]Site

	// methodsSorted memoizes Methods(): the sort is O(n log n) with a
	// string comparator and three extraction passes used to pay it each.
	methodsOnce   sync.Once
	methodsSorted []*apk.Method
}

// Build constructs the graph for a release.
func Build(r *apk.Release) *Graph {
	methodCount := 0
	for _, c := range r.Classes {
		methodCount += len(c.Methods)
	}
	g := &Graph{
		release:   r,
		methods:   make(map[ref]*apk.Method, methodCount),
		callSites: make(map[ref][]Site, methodCount),
	}
	for _, c := range r.Classes {
		for _, m := range c.Methods {
			g.methods[ref{m.Class, m.Name}] = m
			for i := range m.Statements {
				st := &m.Statements[i]
				if st.Op != apk.OpInvoke {
					continue
				}
				k := ref{st.InvokeClass, st.InvokeMethod}
				g.callSites[k] = append(g.callSites[k], Site{Method: m, StmtIdx: i})
			}
		}
	}
	return g
}

// MethodRef returns the app method declared on class with the given name.
func (g *Graph) MethodRef(class, name string) (*apk.Method, bool) {
	m, ok := g.methods[ref{class, name}]
	return m, ok
}

// Methods returns all app methods, sorted by qualified name. The sorted
// slice is memoized (several extraction passes iterate it); callers must
// treat it as read-only.
func (g *Graph) Methods() []*apk.Method {
	g.methodsOnce.Do(func() {
		out := make([]*apk.Method, 0, len(g.methods))
		for _, m := range g.methods {
			out = append(out, m)
		}
		sort.Slice(out, func(i, j int) bool { return qualifiedLess(out[i], out[j]) })
		g.methodsSorted = out
	})
	return g.methodsSorted
}

// qualifiedLess orders methods exactly as comparing their QualifiedName
// strings would, without building them. The slow byte-walk only runs when
// one class name is a proper prefix of the other (where the shorter side
// reads "." + its method name against the rest of the longer class name).
func qualifiedLess(a, b *apk.Method) bool {
	ac, bc := a.Class, b.Class
	if ac == bc {
		return a.Name < b.Name
	}
	n := len(ac)
	if len(bc) < n {
		n = len(bc)
	}
	if ap, bp := ac[:n], bc[:n]; ap != bp {
		return ap < bp
	}
	if len(ac) < len(bc) {
		return catLess([]string{".", a.Name}, []string{bc[n:], ".", b.Name})
	}
	return catLess([]string{ac[n:], ".", a.Name}, []string{".", b.Name})
}

// catLess compares the virtual concatenations of two segment lists.
func catLess(a, b []string) bool {
	var ai, aoff, bi, boff int
	for {
		for ai < len(a) && aoff == len(a[ai]) {
			ai++
			aoff = 0
		}
		for bi < len(b) && boff == len(b[bi]) {
			bi++
			boff = 0
		}
		if ai == len(a) {
			return bi != len(b)
		}
		if bi == len(b) {
			return false
		}
		if ca, cb := a[ai][aoff], b[bi][boff]; ca != cb {
			return ca < cb
		}
		aoff++
		boff++
	}
}

// CallSitesOf returns every invocation site of class.method (framework API
// or app method), ordered as Callers orders them (compareSites).
func (g *Graph) CallSitesOf(class, method string) []Site {
	out := slices.Clone(g.callSites[ref{class, method}])
	slices.SortFunc(out, compareSites)
	return out
}

// ClassesCalling returns the distinct app classes that invoke class.method,
// sorted.
func (g *Graph) ClassesCalling(class, method string) []string {
	sites := g.callSites[ref{class, method}]
	out := make([]string, len(sites))
	for i, s := range sites {
		out[i] = s.Class()
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Callers returns the sites where app methods call the app method
// class.method, ordered by the caller's qualified name (qualifiedLess), then
// statement index.
func (g *Graph) Callers(class, method string) []Site {
	if _, isApp := g.release.FindClass(class); !isApp {
		return nil
	}
	sites := g.callSites[ref{class, method}]
	if len(sites) == 0 {
		return nil
	}
	out := slices.Clone(sites)
	slices.SortFunc(out, compareSites)
	return out
}

// compareSites orders sites by their method's qualified name
// (qualifiedLess), then statement index.
func compareSites(a, b Site) int {
	switch {
	case qualifiedLess(a.Method, b.Method):
		return -1
	case qualifiedLess(b.Method, a.Method):
		return 1
	}
	return a.StmtIdx - b.StmtIdx
}

// ClassDependencyCount returns how many distinct app classes the given
// class invokes. Ranking uses it to break importance ties (§4.3): a class
// built on many others more likely implements a core function. The count
// reads the invoke statements of every class entry of that name.
func (g *Graph) ClassDependencyCount(class string) int {
	var buf [16]string
	deps := buf[:0]
	for _, c := range g.release.ClassesNamed(class) {
		for _, m := range c.Methods {
			for i := range m.Statements {
				st := &m.Statements[i]
				if st.Op != apk.OpInvoke || st.InvokeClass == class || slices.Contains(deps, st.InvokeClass) {
					continue
				}
				if _, isApp := g.release.FindClass(st.InvokeClass); isApp {
					deps = append(deps, st.InvokeClass)
				}
			}
		}
	}
	return len(deps)
}

// BackwardStrings performs the backward taint walk of §3.3.2: starting from
// the uses of the statement at the site, it follows the data dependency
// graph (def → use chains) backwards until statements that create new
// values, and records every string constant encountered on the path.
func (g *Graph) BackwardStrings(site Site) []string {
	stmts := site.Method.Statements
	start := stmts[site.StmtIdx]
	pending := append([]string(nil), start.Uses...)
	seenVar := make(map[string]struct{}, len(pending))
	var out []string
	for len(pending) > 0 {
		v := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		if _, dup := seenVar[v]; dup || v == "" {
			continue
		}
		seenVar[v] = struct{}{}
		// Find the latest definition of v before the site.
		for i := site.StmtIdx - 1; i >= 0; i-- {
			st := stmts[i]
			if st.Def != v {
				continue
			}
			switch st.Op {
			case apk.OpConstString:
				out = append(out, st.Const)
			case apk.OpAssign, apk.OpInvoke:
				pending = append(pending, st.Uses...)
			case apk.OpNew:
				// Sink: statement that creates a new variable.
			}
			break
		}
	}
	// Deterministic order.
	sort.Strings(out)
	return out
}

// intentSendAPIs are the framework entry points that dispatch intents
// (§3.3.2: "we first collect all intent related statements").
var intentSendAPIs = []struct{ class, method string }{
	{"android.app.Activity", "startActivity"},
	{"android.app.Activity", "startActivityForResult"},
	{"android.content.Context", "startActivity"},
	{"android.content.Context", "startService"},
	{"android.content.Context", "sendBroadcast"},
}

// IntentSend records an intent dispatched by the app with the action
// string(s) recovered by backward taint.
type IntentSend struct {
	// Actions are the intent action strings found on the taint path.
	Actions []string
	// Site is the dispatching statement.
	Site Site
}

// IntentSends finds all intent dispatch sites and recovers their action
// strings.
func (g *Graph) IntentSends() []IntentSend {
	var out []IntentSend
	for _, api := range intentSendAPIs {
		for _, site := range g.CallSitesOf(api.class, api.method) {
			actions := g.BackwardStrings(site)
			if len(actions) == 0 {
				continue
			}
			out = append(out, IntentSend{Actions: actions, Site: site})
		}
	}
	return out
}

// ContentQuery records a content-provider access with its URI string(s).
type ContentQuery struct {
	URIs []string
	Site Site
}

// contentResolverMethods are the provider operations of §3.3.2.
var contentResolverMethods = []string{"query", "insert", "update", "delete"}

// ContentQueries finds content-provider operations and recovers the URI
// strings flowing into them.
func (g *Graph) ContentQueries() []ContentQuery {
	var out []ContentQuery
	for _, m := range contentResolverMethods {
		for _, site := range g.CallSitesOf("android.content.ContentResolver", m) {
			uris := g.BackwardStrings(site)
			if len(uris) == 0 {
				continue
			}
			out = append(out, ContentQuery{URIs: uris, Site: site})
		}
	}
	return out
}

// MessageSite records a user-visible message raised by the app with the
// string(s) recovered by backward taint.
type MessageSite struct {
	Texts []string
	Site  Site
}

// errorMessageAPIs are the notification APIs of §3.3.2 (AlertDialog,
// TextView, Toast).
var errorMessageAPIs = []struct{ class, method string }{
	{"android.app.AlertDialog$Builder", "setTitle"},
	{"android.app.AlertDialog$Builder", "setMessage"},
	{"android.widget.TextView", "setError"},
	{"android.widget.Toast", "makeText"},
	{"android.app.NotificationManager", "notify"},
}

// ErrorMessages finds the user-visible message sites and recovers their
// text.
func (g *Graph) ErrorMessages() []MessageSite {
	var out []MessageSite
	for _, api := range errorMessageAPIs {
		for _, site := range g.CallSitesOf(api.class, api.method) {
			texts := g.BackwardStrings(site)
			if len(texts) == 0 {
				continue
			}
			out = append(out, MessageSite{Texts: texts, Site: site})
		}
	}
	return out
}

// ExceptionSite records a throw or catch of an exception type.
type ExceptionSite struct {
	Exception string
	Caught    bool
	Site      Site
}

// ExceptionSites lists every throw/catch in the app (§4.2.3 Step 1 for
// developer-defined methods), ordered by method qualified name, then
// statement index. It walks the method index, which holds one method per
// (class, name), and sorts only the sites it finds.
func (g *Graph) ExceptionSites() []ExceptionSite {
	var out []ExceptionSite
	for _, m := range g.methods {
		for i := range m.Statements {
			st := &m.Statements[i]
			if st.Op == apk.OpThrow || st.Op == apk.OpCatch {
				out = append(out, ExceptionSite{Exception: st.Exception, Caught: st.Op == apk.OpCatch,
					Site: Site{Method: m, StmtIdx: i}})
			}
		}
	}
	slices.SortFunc(out, func(a, b ExceptionSite) int { return compareSites(a.Site, b.Site) })
	return out
}

// FrameworkCalls returns every invocation site whose callee class is not an
// app class — the API usage inventory of §3.3.2.
func (g *Graph) FrameworkCalls() []Site {
	appClasses := make(map[string]struct{}, len(g.release.Classes))
	for _, c := range g.release.Classes {
		appClasses[c.Name] = struct{}{}
	}
	var out []Site
	for _, c := range g.release.Classes {
		for _, m := range c.Methods {
			for i := range m.Statements {
				st := &m.Statements[i]
				if st.Op != apk.OpInvoke {
					continue
				}
				if _, isApp := appClasses[st.InvokeClass]; isApp {
					continue
				}
				out = append(out, Site{Method: m, StmtIdx: i})
			}
		}
	}
	return out
}
