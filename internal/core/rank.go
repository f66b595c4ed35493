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
	type acc struct {
		phrases  map[string]struct{}
		contexts map[string]struct{}
		methods  map[string]struct{}
	}
	byClass := make(map[string]*acc)
	for _, m := range mappings {
		a, ok := byClass[m.Class]
		if !ok {
			a = &acc{
				phrases:  make(map[string]struct{}),
				contexts: make(map[string]struct{}),
				methods:  make(map[string]struct{}),
			}
			byClass[m.Class] = a
		}
		a.phrases[m.Phrase] = struct{}{}
		a.contexts[m.Context.String()] = struct{}{}
		if m.Method != "" {
			a.methods[m.Method] = struct{}{}
		}
	}
	out := make([]RankedClass, 0, len(byClass))
	for cls, a := range byClass {
		rc := RankedClass{
			Class:      cls,
			Importance: len(a.phrases),
			Contexts:   sortedKeys(a.contexts),
			Methods:    sortedKeys(a.methods),
		}
		if g != nil {
			rc.Dependencies = g.ClassDependencyCount(cls)
		}
		_, rc.Changed = slices.BinarySearch(changed, cls)
		out = append(out, rc)
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
