package apg

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"reviewsolver/internal/apk"
	"reviewsolver/internal/synth"
)

// oracleMCG is the whole-app derivation the graph used to build on its
// first ranking query: every app-internal MCG edge keyed and valued by
// qualified name (one edge per invocation site), and each class's set of
// invoked app classes, keyed by the calling method's Class.
func oracleMCG(g *Graph) (callers map[string][]string, classDeps map[string]map[string]struct{}) {
	appClasses := make(map[string]struct{}, len(g.release.Classes))
	for _, c := range g.release.Classes {
		appClasses[c.Name] = struct{}{}
	}
	callers = make(map[string][]string)
	classDeps = make(map[string]map[string]struct{})
	for k, sites := range g.callSites {
		if _, isApp := appClasses[k.class]; !isApp {
			continue
		}
		callee := k.class + "." + k.method
		for _, s := range sites {
			callers[callee] = append(callers[callee], s.Method.QualifiedName())
			if k.class != s.Method.Class {
				deps, ok := classDeps[s.Method.Class]
				if !ok {
					deps = make(map[string]struct{})
					classDeps[s.Method.Class] = deps
				}
				deps[k.class] = struct{}{}
			}
		}
	}
	for _, cs := range callers {
		sort.Strings(cs)
	}
	return callers, classDeps
}

// oracleExceptionSites walks every method in qualified-name order, the way
// ExceptionSites did before it sorted only the sites.
func oracleExceptionSites(g *Graph) []ExceptionSite {
	var out []ExceptionSite
	for _, m := range g.Methods() {
		for i := range m.Statements {
			st := &m.Statements[i]
			switch st.Op {
			case apk.OpThrow:
				out = append(out, ExceptionSite{Exception: st.Exception, Site: Site{Method: m, StmtIdx: i}})
			case apk.OpCatch:
				out = append(out, ExceptionSite{Exception: st.Exception, Caught: true, Site: Site{Method: m, StmtIdx: i}})
			}
		}
	}
	return out
}

// oracleCallSites orders a callee's sites by comparing their methods'
// QualifiedName strings, then statement index, as CallSitesOf once did.
func oracleCallSites(sites []Site) []Site {
	out := make([]Site, len(sites))
	copy(out, sites)
	sort.Slice(out, func(i, j int) bool {
		qi, qj := out[i].Method.QualifiedName(), out[j].Method.QualifiedName()
		if qi != qj {
			return qi < qj
		}
		return out[i].StmtIdx < out[j].StmtIdx
	})
	return out
}

// oracleClassesCalling collects a callee's calling classes in a set, sorted.
func oracleClassesCalling(sites []Site) []string {
	set := make(map[string]struct{})
	for _, s := range sites {
		set[s.Class()] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// callerNames lists the qualified names of caller sites.
func callerNames(sites []Site) []string {
	var out []string
	for _, s := range sites {
		out = append(out, s.Method.QualifiedName())
	}
	return out
}

// TestQueriesMatchWholeGraphOracle: dependency counts, exception sites and
// exception-site callers, each derived per query, equal the whole-graph
// derivation on every class and exception site of every release of the
// Table 6 + 14 apps at seeds 1–3, plain and padded 15×; the call sites and
// calling classes of every callee equal a sort on qualified-name strings
// and a set.
func TestQueriesMatchWholeGraphOracle(t *testing.T) {
	releases, classes, sites, callees := 0, 0, 0, 0
	for seed := int64(1); seed <= 3; seed++ {
		apps := append(synth.GenerateTable6(seed), synth.GenerateTable14(seed)...)
		for _, data := range apps {
			for _, app := range []*apk.App{data.App, synth.InflateApp(data.App, 15)} {
				for _, r := range app.Releases {
					g := Build(r)
					callers, classDeps := oracleMCG(g)
					for _, c := range r.Classes {
						if got, want := g.ClassDependencyCount(c.Name), len(classDeps[c.Name]); got != want {
							t.Fatalf("seed %d %s %s: ClassDependencyCount(%s) = %d, oracle %d",
								seed, app.Package, r.Version, c.Name, got, want)
						}
						classes++
					}
					got, want := g.ExceptionSites(), oracleExceptionSites(g)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d %s %s: ExceptionSites differ from the method-order walk", seed, app.Package, r.Version)
					}
					for _, s := range got {
						m := s.Site.Method
						q := m.QualifiedName()
						if got, want := callerNames(g.Callers(m.Class, m.Name)), callers[q]; !reflect.DeepEqual(got, want) {
							t.Fatalf("seed %d %s %s: Callers(%s) = %v, oracle %v", seed, app.Package, r.Version, q, got, want)
						}
						sites++
					}
					for k, cs := range g.callSites {
						if got, want := g.CallSitesOf(k.class, k.method), oracleCallSites(cs); !reflect.DeepEqual(got, want) {
							t.Fatalf("seed %d %s %s: CallSitesOf(%s.%s) differs from the qualified-name sort",
								seed, app.Package, r.Version, k.class, k.method)
						}
						if got, want := g.ClassesCalling(k.class, k.method), oracleClassesCalling(cs); !reflect.DeepEqual(got, want) {
							t.Fatalf("seed %d %s %s: ClassesCalling(%s.%s) = %v, oracle %v",
								seed, app.Package, r.Version, k.class, k.method, got, want)
						}
						callees++
					}
					releases++
				}
			}
		}
	}
	if sites == 0 {
		t.Fatal("no exception site in the corpus")
	}
	t.Logf("%d releases, %d class entries, %d exception sites, %d callees", releases, classes, sites, callees)
}

// TestDuplicateClassDependencies: a class name declared twice counts the
// invoke statements of both entries.
func TestDuplicateClassDependencies(t *testing.T) {
	r := &apk.Release{Classes: []*apk.Class{
		{Name: "p.A", Methods: []*apk.Method{{Name: "x", Class: "p.A", Statements: []apk.Statement{apk.Invoke("", "p.B", "b")}}}},
		{Name: "p.B"},
		{Name: "p.C"},
		{Name: "p.A", Methods: []*apk.Method{{Name: "y", Class: "p.A", Statements: []apk.Statement{
			apk.Invoke("", "p.C", "c"), apk.Invoke("", "p.B", "b"), apk.Invoke("", "android.widget.Toast", "show")}}}},
	}}
	g := Build(r)
	_, classDeps := oracleMCG(g)
	if got, want := g.ClassDependencyCount("p.A"), len(classDeps["p.A"]); got != 2 || want != 2 {
		t.Fatalf("ClassDependencyCount(p.A) = %d, oracle %d, want 2", got, want)
	}
}

// TestConcurrentQueries: pool workers rank and localize over one shared
// graph, so its queries run from several goroutines at once, including the
// first ones, which build the release's class index and the method order.
// Each goroutine must see what a graph of an identical release answers
// sequentially.
func TestConcurrentQueries(t *testing.T) {
	data := synth.GenerateSample(1)
	seq := Build(synth.InflateApp(data.App, 2).Latest())
	deps := make(map[string]int)
	for _, c := range seq.release.Classes {
		deps[c.Name] = seq.ClassDependencyCount(c.Name)
	}
	callers := make(map[string][]string)
	seqSites := seq.ExceptionSites()
	for _, s := range seqSites {
		m := s.Site.Method
		callers[m.QualifiedName()] = callerNames(seq.Callers(m.Class, m.Name))
	}

	g := Build(synth.InflateApp(data.App, 2).Latest())
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for name, want := range deps {
				if got := g.ClassDependencyCount(name); got != want {
					t.Errorf("ClassDependencyCount(%s) = %d, sequential %d", name, got, want)
				}
			}
			sites := g.ExceptionSites()
			if len(sites) != len(seqSites) {
				t.Errorf("%d exception sites, sequential %d", len(sites), len(seqSites))
			}
			for _, s := range sites {
				m := s.Site.Method
				q := m.QualifiedName()
				if got := callerNames(g.Callers(m.Class, m.Name)); !reflect.DeepEqual(got, callers[q]) {
					t.Errorf("Callers(%s) = %v, sequential %v", q, got, callers[q])
				}
			}
			if len(g.Methods()) != len(seq.Methods()) {
				t.Error("Methods() length differs from the sequential graph's")
			}
		}()
	}
	wg.Wait()
}
