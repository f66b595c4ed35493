package sdk

import (
	"strings"
	"testing"
)

func TestCatalogLookup(t *testing.T) {
	c := NewCatalog()
	api, ok := c.LookupAPI("android.telephony.SmsManager", "sendTextMessage")
	if !ok {
		t.Fatal("sendTextMessage not found")
	}
	if api.Permission != "android.permission.SEND_SMS" {
		t.Errorf("permission = %q", api.Permission)
	}
	if !strings.Contains(api.Description, "send") {
		t.Errorf("description %q lacks verb", api.Description)
	}
	if _, ok := c.LookupAPI("no.such.Class", "nope"); ok {
		t.Error("lookup of missing API succeeded")
	}
}

func TestAPISignature(t *testing.T) {
	api := API{Class: "java.net.Socket", Method: "connect"}
	if api.Signature() != "java.net.Socket.connect()" {
		t.Errorf("Signature = %q", api.Signature())
	}
	if api.ShortClass() != "Socket" {
		t.Errorf("ShortClass = %q", api.ShortClass())
	}
}

func TestAPIsThrowing(t *testing.T) {
	c := NewCatalog()
	// §2.3 Example 7: SocketException is thrown by java.net.Socket methods.
	apis := c.APIsThrowing("SocketException")
	if len(apis) == 0 {
		t.Fatal("no APIs throw SocketException")
	}
	for _, a := range apis {
		if a.Class != "java.net.Socket" {
			t.Errorf("unexpected class %q throwing SocketException", a.Class)
		}
	}
	if len(c.APIsThrowing("NoSuchException")) != 0 {
		t.Error("unknown exception should yield no APIs")
	}
}

func TestURIPermissionMapping(t *testing.T) {
	c := NewCatalog()
	perm, ok := c.URIPermission("content://call_log")
	if !ok || perm != "android.permission.READ_CALL_LOG" {
		t.Errorf("call_log permission = %q ok=%v", perm, ok)
	}
	desc, ok := c.PermissionDescription(perm)
	if !ok || !strings.Contains(desc, "call log") {
		t.Errorf("READ_CALL_LOG description = %q", desc)
	}
}

func TestCommonIntents(t *testing.T) {
	c := NewCatalog()
	if len(c.Intents()) != 11 {
		t.Errorf("paper defines 11 common intents, have %d", len(c.Intents()))
	}
	foundCamera := false
	for _, in := range c.Intents() {
		if in.Action == "android.media.action.IMAGE_CAPTURE" {
			foundCamera = true
			has := false
			for _, n := range in.Nouns {
				if n == "camera" {
					has = true
				}
			}
			if !has {
				t.Error("IMAGE_CAPTURE missing 'camera' noun")
			}
		}
	}
	if !foundCamera {
		t.Error("IMAGE_CAPTURE intent missing")
	}
}

func TestCatalogConsistency(t *testing.T) {
	c := NewCatalog()
	if len(c.APIs()) < 70 {
		t.Errorf("catalog suspiciously small: %d APIs", len(c.APIs()))
	}
	// Every API permission must have a description.
	for _, a := range c.APIs() {
		if a.Permission == "" {
			continue
		}
		if _, ok := c.PermissionDescription(a.Permission); !ok {
			t.Errorf("API %s references undocumented permission %s", a.Signature(), a.Permission)
		}
	}
	// Every URI permission must have a description.
	for _, u := range c.URIs() {
		if _, ok := c.PermissionDescription(u.Permission); !ok {
			t.Errorf("URI %s references undocumented permission %s", u.URI, u.Permission)
		}
	}
	// Descriptions must be non-empty and lower-case-matchable.
	for _, a := range c.APIs() {
		if strings.TrimSpace(a.Description) == "" {
			t.Errorf("API %s has empty description", a.Signature())
		}
	}
}

func TestIsFrameworkClass(t *testing.T) {
	c := NewCatalog()
	if !c.IsFrameworkClass("java.net.Socket") {
		t.Error("java.net.Socket should be a framework class")
	}
	if c.IsFrameworkClass("com.example.app.MainActivity") {
		t.Error("app class misidentified as framework")
	}
}

func TestExceptionTypes(t *testing.T) {
	c := NewCatalog()
	types := c.ExceptionTypes()
	want := map[string]bool{"SocketException": false, "IOException": false, "SecurityException": false}
	for _, ty := range types {
		if _, ok := want[ty]; ok {
			want[ty] = true
		}
	}
	for ty, seen := range want {
		if !seen {
			t.Errorf("exception type %s missing from catalog", ty)
		}
	}
}

// URIs returns all provider URIs.
func (c *Catalog) URIs() []URI { return c.uris }

// IsFrameworkClass reports whether the class belongs to the catalog.
func (c *Catalog) IsFrameworkClass(class string) bool {
	_, ok := c.byClass[class]
	return ok
}

// APIsThrowing returns the APIs documented to throw the given exception
// type (short name, e.g. "SocketException").
func (c *Catalog) APIsThrowing(exception string) []API {
	idxs := c.byException[exception]
	out := make([]API, 0, len(idxs))
	for _, i := range idxs {
		out = append(out, c.apis[i])
	}
	return out
}

// ExceptionTypes returns the distinct exception type names in the catalog.
func (c *Catalog) ExceptionTypes() []string {
	out := make([]string, 0, len(c.byException))
	for ex := range c.byException {
		out = append(out, ex)
	}
	return out
}
