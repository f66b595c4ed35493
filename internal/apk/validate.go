package apk

import "fmt"

// ReleaseOrderError reports that App.Releases is not sorted the way
// ReleaseBefore (and everything downstream of it) assumes: release times
// non-decreasing and version codes strictly increasing.
type ReleaseOrderError struct {
	// Package is the app the violation was found in.
	Package string
	// Index is the position of the out-of-order release (the second of the
	// offending pair).
	Index int
	// Prev and Next are the version strings of the offending pair.
	Prev, Next string
	// Reason says which invariant broke.
	Reason string
}

func (e *ReleaseOrderError) Error() string {
	return fmt.Sprintf("app %s: releases out of order at index %d (%s -> %s): %s",
		e.Package, e.Index, e.Prev, e.Next, e.Reason)
}

// CheckReleaseOrder verifies the release-history ordering invariant that
// ReleaseBefore silently assumes: ReleasedAt non-decreasing and
// VersionCode strictly increasing. It returns a *ReleaseOrderError for the
// first violation, or nil for a well-ordered history.
func (a *App) CheckReleaseOrder() error {
	for i := 1; i < len(a.Releases); i++ {
		prev, next := a.Releases[i-1], a.Releases[i]
		if next.ReleasedAt.Before(prev.ReleasedAt) {
			return &ReleaseOrderError{
				Package: a.Package, Index: i,
				Prev: prev.Version, Next: next.Version,
				Reason: fmt.Sprintf("released %s before predecessor's %s",
					next.ReleasedAt.Format("2006-01-02"),
					prev.ReleasedAt.Format("2006-01-02")),
			}
		}
		if next.VersionCode <= prev.VersionCode {
			return &ReleaseOrderError{
				Package: a.Package, Index: i,
				Prev: prev.Version, Next: next.Version,
				Reason: fmt.Sprintf("version code %d does not increase past %d",
					next.VersionCode, prev.VersionCode),
			}
		}
	}
	return nil
}

// ShapeError reports an app IR that no snapshot can serve: an app without a
// release, a null release, class or method (JSON null decodes to a nil
// pointer, which extraction and serving dereference), or a statement whose
// opcode is undefined (the binary codec refuses it).
type ShapeError struct {
	// Package is the app the violation was found in.
	Package string
	// Reason says what is missing or null.
	Reason string
}

func (e *ShapeError) Error() string {
	return fmt.Sprintf("app %s: %s", e.Package, e.Reason)
}

// Check verifies what serving assumes of an app IR: at least one release,
// no null release, class or method, only defined statement opcodes, and a
// release history in order (CheckReleaseOrder). It returns a *ShapeError or
// a *ReleaseOrderError for the first violation, or nil.
func (a *App) Check() error {
	if len(a.Releases) == 0 {
		return &ShapeError{Package: a.Package, Reason: "no release"}
	}
	for i, r := range a.Releases {
		if r == nil {
			return &ShapeError{Package: a.Package, Reason: fmt.Sprintf("release %d is null", i)}
		}
		for j, c := range r.Classes {
			if c == nil {
				return &ShapeError{Package: a.Package, Reason: fmt.Sprintf("release %s: class %d is null", r.Version, j)}
			}
			for k, m := range c.Methods {
				if m == nil {
					return &ShapeError{Package: a.Package, Reason: fmt.Sprintf("release %s: class %s: method %d is null", r.Version, c.Name, k)}
				}
				for si := range m.Statements {
					if op := m.Statements[si].Op; op < OpConstString || op > OpReturn {
						return &ShapeError{Package: a.Package, Reason: fmt.Sprintf("release %s: method %s: statement %d has undefined opcode %d", r.Version, m.QualifiedName(), si, op)}
					}
				}
			}
		}
	}
	return a.CheckReleaseOrder()
}
