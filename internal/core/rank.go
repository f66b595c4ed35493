package core

import (
	"slices"
	"sort"

	"reviewsolver/internal/apg"
)

// RankedClass is one recommended class with its ranking signals (§4.3).
type RankedClass struct {
	// Class is the fully qualified class name.
	Class string
	// Importance counts the distinct (phrase, class) mappings.
	Importance int
	// Dependencies is the class's fan-out in the class dependency graph
	// (the tie-breaker).
	Dependencies int
	// Contexts lists the localizer context names that voted for the class.
	Contexts []string
	// Methods lists the specific methods recommended within the class.
	Methods []string
	// Changed marks classes touched between the review's release and its
	// predecessor; only set under change-aware ranking
	// (WithChangeAwareRank), where it is the leading sort key.
	Changed bool
}

// RankClasses implements §4.3: the importance of a class is the number of
// distinct phrases mapped to it; ties are broken by the class dependency
// fan-out (classes built on more classes rank first); the top n classes are
// recommended.
func RankClasses(mappings []Mapping, g *apg.Graph, n int) []RankedClass {
	return rankClasses(mappings, g, n, nil)
}

// rankClasses is RankClasses with the sorted class names apk.DiffReleases
// lists for the review's release (nil outside change-aware ranking):
// listed classes order ahead of the rest (§4.1.6's localizeUpdate
// intuition — a function-error review against a fresh release most likely
// blames code the update touched), with the standard importance,
// dependency and name ordering applied within each group.
func rankClasses(mappings []Mapping, g *apg.Graph, n int, changed []string) []RankedClass {
	// One accumulator per candidate class, in first-mapping order. A
	// class's distinct phrases, contexts and methods are few, so linear
	// search dedups them without a map per class; the sort below is a total
	// order, so the accumulation order never reaches the output.
	type acc struct{ phrases, contexts, methods []string }
	pos := make(map[string]int)
	var out []RankedClass
	var accs []acc
	for i := range mappings {
		m := &mappings[i]
		p, ok := pos[m.Class]
		if !ok {
			p = len(out)
			pos[m.Class] = p
			out = append(out, RankedClass{Class: m.Class})
			accs = append(accs, acc{})
		}
		a := &accs[p]
		a.phrases = appendNew(a.phrases, m.Phrase)
		a.contexts = appendNew(a.contexts, m.Context.String())
		if m.Method != "" {
			a.methods = appendNew(a.methods, m.Method)
		}
	}
	for p := range out {
		rc, a := &out[p], &accs[p]
		rc.Importance = len(a.phrases)
		rc.Contexts = sortedSet(a.contexts)
		rc.Methods = sortedSet(a.methods)
		if g != nil {
			rc.Dependencies = g.ClassDependencyCount(rc.Class)
		}
		_, rc.Changed = slices.BinarySearch(changed, rc.Class)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Changed != out[j].Changed {
			return out[i].Changed
		}
		if out[i].Importance != out[j].Importance {
			return out[i].Importance > out[j].Importance
		}
		if out[i].Dependencies != out[j].Dependencies {
			return out[i].Dependencies > out[j].Dependencies
		}
		return out[i].Class < out[j].Class
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// appendNew appends s to set unless set already holds it.
func appendNew(set []string, s string) []string {
	if slices.Contains(set, s) {
		return set
	}
	return append(set, s)
}

// sortedSet sorts set in place. An empty set is an empty, non-nil slice,
// so a ranked class without methods serves "methods": [] as it always has.
func sortedSet(set []string) []string {
	if set == nil {
		return []string{}
	}
	sort.Strings(set)
	return set
}
