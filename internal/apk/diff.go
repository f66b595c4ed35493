package apk

import (
	"hash/fnv"
	"sort"
)

// This file implements the class-level release differ behind change-aware
// ranking (core.WithChangeAwareRank). Classes are keyed by qualified name
// and compared by content fingerprint, so the added/removed/changed sets are
// deterministic for a given pair of releases regardless of build order.

// ReleaseDelta is the class-level diff between two releases of one app.
type ReleaseDelta struct {
	// AddedClasses/RemovedClasses/ChangedClasses are class names, sorted.
	// "Changed" means the class exists in both releases with a different
	// content fingerprint (superclass, method set, or statement bodies).
	AddedClasses   []string
	RemovedClasses []string
	ChangedClasses []string

	touched map[string]struct{} // added ∪ changed class names
}

// ClassTouched reports whether the named class was added or changed in
// the newer release.
func (d *ReleaseDelta) ClassTouched(name string) bool {
	_, ok := d.touched[name]
	return ok
}

// TouchedClasses returns the sorted union of added and changed classes —
// the classes a change-aware ranker boosts.
func (d *ReleaseDelta) TouchedClasses() []string {
	out := make([]string, 0, len(d.touched))
	for name := range d.touched {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// DiffReleases computes the class-level delta from prev to next. Both
// releases must belong to the same app; prev may be nil (first release),
// and every class of next is then reported as added.
func DiffReleases(prev, next *Release) *ReleaseDelta {
	d := &ReleaseDelta{touched: make(map[string]struct{})}
	if prev == nil {
		for _, c := range next.Classes {
			d.AddedClasses = append(d.AddedClasses, c.Name)
			d.touched[c.Name] = struct{}{}
		}
		sort.Strings(d.AddedClasses)
		return d
	}

	pIdx, nIdx := prev.index(), next.index()
	for _, c := range next.Classes {
		pc, existed := pIdx.byName[c.Name]
		if !existed {
			d.AddedClasses = append(d.AddedClasses, c.Name)
			d.touched[c.Name] = struct{}{}
			continue
		}
		if pIdx.classFP(pc) != nIdx.classFP(c) {
			d.ChangedClasses = append(d.ChangedClasses, c.Name)
			d.touched[c.Name] = struct{}{}
		}
	}
	for _, c := range prev.Classes {
		if _, stays := nIdx.byName[c.Name]; !stays {
			d.RemovedClasses = append(d.RemovedClasses, c.Name)
		}
	}
	sort.Strings(d.AddedClasses)
	sort.Strings(d.RemovedClasses)
	sort.Strings(d.ChangedClasses)
	return d
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
