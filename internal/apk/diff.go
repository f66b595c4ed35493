package apk

import (
	"hash/fnv"
	"slices"
	"sort"
)

// This file holds the one release differ. The Update localizer (§4.1.6),
// change-aware ranking (core.WithChangeAwareRank, Table 17) and the
// synthetic release notes (Fig. 6) all ask the same question — which
// classes did a release add or change relative to its predecessor? — and
// DiffReleases answers it for all three. Classes are keyed by qualified
// name, never by position, and compared by an order-sensitive content
// fingerprint, so the answer does not depend on build order. Each release
// memoizes its latest answer on its lazily built index, keyed by the
// predecessor it was diffed against, so every reader of a release pair
// (solvers sharing a snapshot, standalone solvers, the generator) shares
// one computation.

// releaseDiff is one memoized DiffReleases answer: the classes added or
// changed in the release relative to prev.
type releaseDiff struct {
	prev    *Release
	classes []string
}

// DiffReleases returns the sorted names of the classes added or changed in
// next relative to prev. "Changed" means the class exists in both releases
// with a different content fingerprint (superclass, method names, or
// statement bodies); classes prev has and next lacks are not listed. prev
// may be nil (first release), and every class of next then counts as
// added. The answer is computed once per (prev, next) pair and memoized on
// next, which keeps the latest pair; the returned slice is shared by every
// caller and must not be modified. Like the index it lives on, the memo
// assumes both releases are no longer mutated.
func DiffReleases(prev, next *Release) []string {
	x := next.index()
	if d := x.diff.Load(); d != nil && d.prev == prev {
		return d.classes
	}
	var classes []string
	if prev == nil {
		classes = make([]string, len(next.Classes)) // every class is added
		for i, c := range next.Classes {
			classes[i] = c.Name
		}
	} else {
		byName := prev.index().byName
		for _, c := range next.Classes {
			i, existed := byName[c.Name]
			if !existed || classContentFingerprint(prev.Classes[i]) != classContentFingerprint(c) {
				classes = append(classes, c.Name)
			}
		}
	}
	sort.Strings(classes)
	classes = slices.Clip(classes)
	x.diff.Store(&releaseDiff{prev: prev, classes: classes})
	return classes
}

// methodFingerprint hashes a method's statement list by content: opcode,
// defined/used locals, string constant, callee, and exception type, each
// field-separated so shifted content cannot collide with itself.
func methodFingerprint(m *Method) uint64 {
	h := fnv.New64a()
	var sep = [1]byte{0x1f}
	var buf [1]byte
	ws := func(s string) {
		h.Write([]byte(s))
		h.Write(sep[:])
	}
	for _, st := range m.Statements {
		buf[0] = byte(st.Op)
		h.Write(buf[:])
		ws(st.Def)
		for _, u := range st.Uses {
			ws(u)
		}
		ws("")
		ws(st.Const)
		ws(st.InvokeClass)
		ws(st.InvokeMethod)
		ws(st.Exception)
	}
	return h.Sum64()
}

// classContentFingerprint hashes a class's superclass and methods in
// declaration order. Method order is deliberately order-sensitive: the
// static-analysis graph resolves duplicate method names positionally, so a
// reorder is treated as a change.
func classContentFingerprint(c *Class) uint64 {
	h := fnv.New64a()
	var sep = [1]byte{0x1e}
	h.Write([]byte(c.Super))
	h.Write(sep[:])
	var buf [8]byte
	for _, m := range c.Methods {
		h.Write([]byte(m.Name))
		h.Write(sep[:])
		fp := methodFingerprint(m)
		for i := 0; i < 8; i++ {
			buf[i] = byte(fp >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}
