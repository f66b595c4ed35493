package apk

import (
	"hash/fnv"
	"sort"
)

// This file implements the structural release differ behind change-aware
// ranking (core.WithChangeAwareRank). Entities are keyed by stable identity —
// classes and layouts by name, methods by name within their class,
// activities by declared class name — and compared by content fingerprint,
// so the added/removed/changed sets are deterministic for a given pair of
// releases regardless of build order.

// ClassDelta details how one changed class differs between two releases.
type ClassDelta struct {
	// Name is the fully qualified class name.
	Name string
	// AddedMethods/RemovedMethods/ChangedMethods are method names, sorted.
	// A method is "changed" when its statement list differs by content
	// fingerprint (opcode, defs, uses, constants, callee, exception).
	AddedMethods   []string
	RemovedMethods []string
	ChangedMethods []string
}

// ReleaseDelta is the structural diff between two releases of one app.
// Prev may be nil (first release): every class, layout and activity of
// Next is then reported as added.
type ReleaseDelta struct {
	// Prev and Next are the compared releases.
	Prev, Next *Release

	// AddedClasses/RemovedClasses/ChangedClasses are class names, sorted.
	// "Changed" means the class exists in both releases with a different
	// content fingerprint (superclass, method set, or statement bodies).
	AddedClasses   []string
	RemovedClasses []string
	ChangedClasses []string
	// ClassDetails holds the per-method breakdown of each changed class,
	// sorted by class name.
	ClassDetails []ClassDelta

	// PermissionsChanged reports a difference in the manifest permission
	// list (order-sensitive: extraction consumes it in declaration order).
	PermissionsChanged bool
	// ActivitiesAdded/Removed/Changed are activity class names whose
	// manifest declaration (layout id, intent filters) appeared,
	// disappeared, or changed; sorted.
	ActivitiesAdded   []string
	ActivitiesRemoved []string
	ActivitiesChanged []string
	// LayoutsAdded/Removed/Changed are layout resource ids, sorted;
	// "changed" compares the whole widget tree.
	LayoutsAdded   []string
	LayoutsRemoved []string
	LayoutsChanged []string
	// StringResChanged reports any difference in the string-resource map.
	StringResChanged bool

	touched    map[string]struct{} // added ∪ changed class names
	actTouched map[string]struct{} // added ∪ removed ∪ changed activities
	layTouched map[string]struct{} // added ∪ removed ∪ changed layouts
}

// Identical reports whether the diff found no difference at all.
func (d *ReleaseDelta) Identical() bool {
	return len(d.AddedClasses) == 0 && len(d.RemovedClasses) == 0 &&
		len(d.ChangedClasses) == 0 && !d.PermissionsChanged &&
		len(d.actTouched) == 0 && len(d.layTouched) == 0 &&
		!d.StringResChanged
}

// ClassTouched reports whether the named class was added or changed in
// Next.
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

// ActivityTouched reports whether the activity's manifest declaration was
// added, removed, or changed.
func (d *ReleaseDelta) ActivityTouched(name string) bool {
	_, ok := d.actTouched[name]
	return ok
}

// LayoutTouched reports whether the layout resource was added, removed, or
// changed.
func (d *ReleaseDelta) LayoutTouched(id string) bool {
	_, ok := d.layTouched[id]
	return ok
}

// DiffReleases computes the structural delta from prev to next. Both
// releases must belong to the same app; prev may be nil.
func DiffReleases(prev, next *Release) *ReleaseDelta {
	d := &ReleaseDelta{
		Prev:       prev,
		Next:       next,
		touched:    make(map[string]struct{}),
		actTouched: make(map[string]struct{}),
		layTouched: make(map[string]struct{}),
	}
	if prev == nil {
		for _, c := range next.Classes {
			d.AddedClasses = append(d.AddedClasses, c.Name)
			d.touched[c.Name] = struct{}{}
		}
		sort.Strings(d.AddedClasses)
		for _, a := range next.Manifest.Activities {
			d.ActivitiesAdded = append(d.ActivitiesAdded, a.Name)
			d.actTouched[a.Name] = struct{}{}
		}
		sort.Strings(d.ActivitiesAdded)
		for _, l := range next.Layouts {
			d.LayoutsAdded = append(d.LayoutsAdded, l.ID)
			d.layTouched[l.ID] = struct{}{}
		}
		sort.Strings(d.LayoutsAdded)
		d.PermissionsChanged = len(next.Manifest.Permissions) > 0
		d.StringResChanged = len(next.StringRes) > 0
		return d
	}

	d.diffClasses(prev, next)
	d.diffManifest(prev, next)
	d.diffLayouts(prev, next)
	d.StringResChanged = !stringMapEqual(prev.StringRes, next.StringRes)
	return d
}

func (d *ReleaseDelta) diffClasses(prev, next *Release) {
	pIdx, nIdx := prev.index(), next.index()
	prevIdx := pIdx.byName
	nextIdx := nIdx.byName
	for _, c := range next.Classes {
		pc, existed := prevIdx[c.Name]
		if !existed {
			d.AddedClasses = append(d.AddedClasses, c.Name)
			d.touched[c.Name] = struct{}{}
			continue
		}
		if pIdx.classFP(pc) != nIdx.classFP(c) {
			d.ChangedClasses = append(d.ChangedClasses, c.Name)
			d.touched[c.Name] = struct{}{}
			d.ClassDetails = append(d.ClassDetails, diffClass(pc, c))
		}
	}
	for _, c := range prev.Classes {
		if _, stays := nextIdx[c.Name]; !stays {
			d.RemovedClasses = append(d.RemovedClasses, c.Name)
		}
	}
	sort.Strings(d.AddedClasses)
	sort.Strings(d.RemovedClasses)
	sort.Strings(d.ChangedClasses)
	sort.Slice(d.ClassDetails, func(i, j int) bool {
		return d.ClassDetails[i].Name < d.ClassDetails[j].Name
	})
}

func diffClass(prev, next *Class) ClassDelta {
	cd := ClassDelta{Name: next.Name}
	prevFP := make(map[string]uint64, len(prev.Methods))
	for _, m := range prev.Methods {
		prevFP[m.Name] = methodFingerprint(m)
	}
	seen := make(map[string]struct{}, len(next.Methods))
	for _, m := range next.Methods {
		seen[m.Name] = struct{}{}
		fp, existed := prevFP[m.Name]
		switch {
		case !existed:
			cd.AddedMethods = append(cd.AddedMethods, m.Name)
		case fp != methodFingerprint(m):
			cd.ChangedMethods = append(cd.ChangedMethods, m.Name)
		}
	}
	for _, m := range prev.Methods {
		if _, stays := seen[m.Name]; !stays {
			cd.RemovedMethods = append(cd.RemovedMethods, m.Name)
		}
	}
	sort.Strings(cd.AddedMethods)
	sort.Strings(cd.RemovedMethods)
	sort.Strings(cd.ChangedMethods)
	return cd
}

func (d *ReleaseDelta) diffManifest(prev, next *Release) {
	d.PermissionsChanged = !stringSliceEqual(
		prev.Manifest.Permissions, next.Manifest.Permissions)

	prevActs, prevDup := activityMap(prev.Manifest.Activities)
	nextActs, nextDup := activityMap(next.Manifest.Activities)
	for name, decl := range nextActs {
		pd, existed := prevActs[name]
		switch {
		case !existed:
			d.ActivitiesAdded = append(d.ActivitiesAdded, name)
			d.actTouched[name] = struct{}{}
		case !activityDeclEqual(pd, decl) || prevDup[name] || nextDup[name]:
			// Duplicate declarations of one name are compared
			// conservatively: always treated as changed.
			d.ActivitiesChanged = append(d.ActivitiesChanged, name)
			d.actTouched[name] = struct{}{}
		}
	}
	for name := range prevActs {
		if _, stays := nextActs[name]; !stays {
			d.ActivitiesRemoved = append(d.ActivitiesRemoved, name)
			d.actTouched[name] = struct{}{}
		}
	}
	sort.Strings(d.ActivitiesAdded)
	sort.Strings(d.ActivitiesRemoved)
	sort.Strings(d.ActivitiesChanged)
}

func (d *ReleaseDelta) diffLayouts(prev, next *Release) {
	prevIdx := prev.index().layouts
	nextIdx := next.index().layouts
	for id, ni := range nextIdx {
		pi, existed := prevIdx[id]
		switch {
		case !existed:
			d.LayoutsAdded = append(d.LayoutsAdded, id)
			d.layTouched[id] = struct{}{}
		case !widgetEqual(&prev.Layouts[pi].Root, &next.Layouts[ni].Root):
			d.LayoutsChanged = append(d.LayoutsChanged, id)
			d.layTouched[id] = struct{}{}
		}
	}
	for id := range prevIdx {
		if _, stays := nextIdx[id]; !stays {
			d.LayoutsRemoved = append(d.LayoutsRemoved, id)
			d.layTouched[id] = struct{}{}
		}
	}
	sort.Strings(d.LayoutsAdded)
	sort.Strings(d.LayoutsRemoved)
	sort.Strings(d.LayoutsChanged)
}

func activityMap(decls []ActivityDecl) (map[string]ActivityDecl, map[string]bool) {
	m := make(map[string]ActivityDecl, len(decls))
	dup := make(map[string]bool)
	for _, a := range decls {
		if _, seen := m[a.Name]; seen {
			dup[a.Name] = true
			continue
		}
		m[a.Name] = a
	}
	return m, dup
}

func activityDeclEqual(a, b ActivityDecl) bool {
	if a.Name != b.Name || a.LayoutID != b.LayoutID ||
		len(a.IntentFilters) != len(b.IntentFilters) {
		return false
	}
	for i := range a.IntentFilters {
		if !stringSliceEqual(a.IntentFilters[i].Actions, b.IntentFilters[i].Actions) ||
			!stringSliceEqual(a.IntentFilters[i].Categories, b.IntentFilters[i].Categories) {
			return false
		}
	}
	return true
}

func widgetEqual(a, b *Widget) bool {
	if a.Type != b.Type || a.ID != b.ID || a.Text != b.Text ||
		a.Hint != b.Hint || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !widgetEqual(&a.Children[i], &b.Children[i]) {
			return false
		}
	}
	return true
}

func stringSliceEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func stringMapEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
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
