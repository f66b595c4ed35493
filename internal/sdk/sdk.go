// Package sdk is the offline Android framework catalog that ReviewSolver's
// static analysis and localizers consult: framework API signatures with
// official-documentation descriptions, permissions, and thrown exceptions
// (§4.2.1, §4.2.3); content-provider URIs with their PScout permission
// mapping (§4.2.1); the Android common intents with their descriptive nouns
// (§4.2.1); and permission descriptions (for URI noun extraction).
//
// In the original system this data comes from the Android developer
// documentation, PScout, and the platform SDK; here it is curated into a
// static table covering the APIs that mobile apps exercise in the paper's
// evaluation domains (messaging, media, network, storage, telephony,
// location, UI).
package sdk

import "strings"

// API describes one Android framework method.
type API struct {
	// Class is the fully qualified class name, e.g. "android.telephony.SmsManager".
	Class string
	// Method is the method name, e.g. "sendTextMessage".
	Method string
	// Description is the official-documentation summary sentence.
	Description string
	// Permission is the permission required to call the API ("" if none).
	Permission string
	// Exceptions lists exception type names the API is documented to throw.
	Exceptions []string
}

// Signature returns "class.method()".
func (a API) Signature() string { return a.Class + "." + a.Method + "()" }

// ShortClass returns the class name without the package.
func (a API) ShortClass() string {
	if i := strings.LastIndexByte(a.Class, '.'); i >= 0 {
		return a.Class[i+1:]
	}
	return a.Class
}

// URI describes a content-provider URI and its protecting permission
// (the PScout mapping).
type URI struct {
	// URI is the provider URI, e.g. "content://contacts".
	URI string
	// Permission protects read access to the URI.
	Permission string
}

// Intent describes one of the Android "common intents" with the nouns users
// employ for it.
type Intent struct {
	// Action is the intent action string.
	Action string
	// Nouns are the user-facing nouns associated with the intent
	// (manually defined per §4.2.1, from the common-intents documentation).
	Nouns []string
}

// Permission describes an Android permission and its documentation sentence.
type Permission struct {
	// Name is the permission constant, e.g. "android.permission.READ_CALL_LOG".
	Name string
	// Description is the documentation sentence; the URI localizer extracts
	// noun phrases from it (§4.2.1).
	Description string
}

// Catalog bundles the framework tables with lookup indexes.
type Catalog struct {
	apis        []API
	uris        []URI
	intents     []Intent
	permissions map[string]Permission
	byClass     map[string][]int
	bySignature map[string]int
	byException map[string][]int
}

// NewCatalog builds the built-in catalog.
func NewCatalog() *Catalog {
	apis := make([]API, 0, len(frameworkAPIs)+len(catalogExtra))
	apis = append(apis, frameworkAPIs...)
	apis = append(apis, catalogExtra...)
	c := &Catalog{
		apis:        apis,
		uris:        providerURIs,
		intents:     commonIntents,
		permissions: make(map[string]Permission, len(permissionTable)+len(extraPermissions)),
		byClass:     make(map[string][]int),
		bySignature: make(map[string]int, len(apis)),
		byException: make(map[string][]int),
	}
	for _, p := range permissionTable {
		c.permissions[p.Name] = p
	}
	for _, p := range extraPermissions {
		c.permissions[p.Name] = p
	}
	for i, a := range c.apis {
		c.byClass[a.Class] = append(c.byClass[a.Class], i)
		c.bySignature[a.Class+"."+a.Method] = i
		for _, ex := range a.Exceptions {
			c.byException[ex] = append(c.byException[ex], i)
		}
	}
	return c
}

// APIs returns all framework APIs.
func (c *Catalog) APIs() []API { return c.apis }

// Intents returns the common intents.
func (c *Catalog) Intents() []Intent { return c.intents }

// LookupAPI finds an API by "class.method" key.
func (c *Catalog) LookupAPI(class, method string) (API, bool) {
	if i, ok := c.bySignature[class+"."+method]; ok {
		return c.apis[i], true
	}
	return API{}, false
}

// PermissionDescription returns the documentation sentence for a permission.
func (c *Catalog) PermissionDescription(name string) (string, bool) {
	p, ok := c.permissions[name]
	return p.Description, ok
}

// URIPermission returns the permission protecting a URI.
func (c *Catalog) URIPermission(uri string) (string, bool) {
	for _, u := range c.uris {
		if u.URI == uri {
			return u.Permission, true
		}
	}
	return "", false
}
