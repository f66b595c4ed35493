package apk

import "time"

// Builder constructs App IRs fluently; the synthetic-app generator and the
// tests use it to assemble realistic release histories.
type Builder struct {
	app *App
	cur *Release
}

// NewBuilder starts an app.
func NewBuilder(pkg, name string) *Builder {
	return &Builder{app: &App{Package: pkg, Name: name}}
}

// Release starts a new release; subsequent class/layout calls apply to it.
func (b *Builder) Release(version string, code int, releasedAt time.Time) *Builder {
	b.cur = &Release{
		Version:     version,
		VersionCode: code,
		ReleasedAt:  releasedAt,
		Manifest:    Manifest{Package: b.app.Package},
		StringRes:   make(map[string]string),
	}
	b.app.Releases = append(b.app.Releases, b.cur)
	return b
}

// Permission adds a manifest permission to the current release.
func (b *Builder) Permission(perms ...string) *Builder {
	b.cur.Manifest.Permissions = append(b.cur.Manifest.Permissions, perms...)
	return b
}

// Activity declares an activity in the current release's manifest.
func (b *Builder) Activity(name, layoutID string, filters ...IntentFilter) *Builder {
	b.cur.Manifest.Activities = append(b.cur.Manifest.Activities, ActivityDecl{
		Name:          name,
		LayoutID:      layoutID,
		IntentFilters: filters,
	})
	return b
}

// LauncherActivity declares the starting activity.
func (b *Builder) LauncherActivity(name, layoutID string) *Builder {
	return b.Activity(name, layoutID, IntentFilter{
		Actions:    []string{ActionMain},
		Categories: []string{CategoryLauncher},
	})
}

// Class adds a class to the current release and returns a ClassBuilder.
func (b *Builder) Class(name string) *ClassBuilder {
	c := &Class{Name: name}
	b.cur.Classes = append(b.cur.Classes, c)
	return &ClassBuilder{b: b, c: c}
}

// Layout adds a layout resource to the current release.
func (b *Builder) Layout(id string, root Widget) *Builder {
	b.cur.Layouts = append(b.cur.Layouts, Layout{ID: id, Root: root})
	return b
}

// StringRes adds a string resource to the current release.
func (b *Builder) StringRes(id, value string) *Builder {
	b.cur.StringRes[id] = value
	return b
}

// CopyRelease clones the previous release as the starting point of a new
// one — the normal evolution pattern where most classes carry over.
func (b *Builder) CopyRelease(version string, code int, releasedAt time.Time) *Builder {
	if b.cur == nil {
		return b.Release(version, code, releasedAt)
	}
	prev := b.cur
	b.Release(version, code, releasedAt)
	b.cur.Manifest = Manifest{
		Package:     prev.Manifest.Package,
		Permissions: append([]string(nil), prev.Manifest.Permissions...),
		Activities:  append([]ActivityDecl(nil), prev.Manifest.Activities...),
	}
	for _, c := range prev.Classes {
		clone := &Class{Name: c.Name, Super: c.Super}
		for _, m := range c.Methods {
			mm := &Method{Name: m.Name, Class: m.Class,
				Statements: append([]Statement(nil), m.Statements...)}
			clone.Methods = append(clone.Methods, mm)
		}
		b.cur.Classes = append(b.cur.Classes, clone)
	}
	b.cur.Layouts = append([]Layout(nil), prev.Layouts...)
	for k, v := range prev.StringRes {
		b.cur.StringRes[k] = v
	}
	return b
}

// CurrentRelease exposes the release being built.
func (b *Builder) CurrentRelease() *Release { return b.cur }

// Build finalizes and returns the app with releases sorted.
func (b *Builder) Build() *App {
	b.app.SortReleases()
	return b.app
}

// ClassBuilder adds methods to a class.
type ClassBuilder struct {
	b *Builder
	c *Class
}

// Method adds a method with the given statements.
func (cb *ClassBuilder) Method(name string, stmts ...Statement) *ClassBuilder {
	cb.c.Methods = append(cb.c.Methods, &Method{
		Name:       name,
		Class:      cb.c.Name,
		Statements: stmts,
	})
	return cb
}

// Statement constructors keep the IR terse at build sites.

// ConstString defines a string literal: def = "text".
func ConstString(def, text string) Statement {
	return Statement{Op: OpConstString, Def: def, Const: text}
}

// NewObj allocates an object of the given class: def = new class().
func NewObj(def, class string) Statement {
	return Statement{Op: OpNew, Def: def, InvokeClass: class}
}

// Invoke calls class.method(uses...) with an optional result local.
func Invoke(def, class, method string, uses ...string) Statement {
	return Statement{Op: OpInvoke, Def: def, InvokeClass: class,
		InvokeMethod: method, Uses: uses}
}

// Catch handles an exception type.
func Catch(exception string) Statement {
	return Statement{Op: OpCatch, Exception: exception}
}

// Return exits the method, optionally using a local.
func Return(uses ...string) Statement {
	return Statement{Op: OpReturn, Uses: uses}
}
