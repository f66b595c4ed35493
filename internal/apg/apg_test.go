package apg

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"reviewsolver/internal/apk"
)

// assign builds the copy statement def = use.
func assign(def, use string) apk.Statement {
	return apk.Statement{Op: apk.OpAssign, Def: def, Uses: []string{use}}
}

// Method returns the app method with the given qualified name. Method names
// never contain '.', so the last dot splits class from method.
func (g *Graph) Method(qualified string) (*apk.Method, bool) {
	i := strings.LastIndexByte(qualified, '.')
	if i < 0 {
		return nil, false
	}
	return g.MethodRef(qualified[:i], qualified[i+1:])
}

func testRelease() *apk.Release {
	b := apk.NewBuilder("com.test.app", "TestApp")
	b.Release("1.0", 1, time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC))
	b.Class("com.test.app.MainActivity").
		Method("onCreate",
			apk.ConstString("msg", "Failed to send some messages"),
			apk.Invoke("", "android.widget.Toast", "makeText", "msg"),
			apk.Invoke("", "com.test.app.Mailer", "sendAll"))
	b.Class("com.test.app.Mailer").
		Method("sendAll",
			apk.Invoke("", "android.telephony.SmsManager", "sendTextMessage"),
			apk.Statement{Op: apk.OpThrow, Exception: "SendException"}).
		Method("openCamera",
			apk.ConstString("act", "android.media.action.IMAGE_CAPTURE"),
			apk.NewObj("intent", "android.content.Intent"),
			assign("payload", "act"),
			apk.Invoke("", "android.app.Activity", "startActivityForResult", "payload", "intent"))
	b.Class("com.test.app.Contacts").
		Method("queryContacts",
			apk.ConstString("uri", "content://contacts"),
			apk.Invoke("cur", "android.content.ContentResolver", "query", "uri"),
			apk.Catch("SecurityException"),
			apk.Return("cur"))
	return b.Build().Latest()
}

func TestCallSitesOf(t *testing.T) {
	g := Build(testRelease())
	sites := g.CallSitesOf("android.telephony.SmsManager", "sendTextMessage")
	if len(sites) != 1 {
		t.Fatalf("call sites = %d, want 1", len(sites))
	}
	if sites[0].Class() != "com.test.app.Mailer" {
		t.Errorf("caller class = %q", sites[0].Class())
	}
}

func TestClassesCalling(t *testing.T) {
	g := Build(testRelease())
	got := g.ClassesCalling("android.widget.Toast", "makeText")
	if !reflect.DeepEqual(got, []string{"com.test.app.MainActivity"}) {
		t.Errorf("ClassesCalling = %v", got)
	}
}

func TestCallersAppMethod(t *testing.T) {
	g := Build(testRelease())
	got := g.Callers("com.test.app.Mailer.sendAll")
	if !reflect.DeepEqual(got, []string{"com.test.app.MainActivity.onCreate"}) {
		t.Errorf("Callers = %v", got)
	}
}

func TestBackwardStringsDirect(t *testing.T) {
	g := Build(testRelease())
	sites := g.CallSitesOf("android.widget.Toast", "makeText")
	got := g.BackwardStrings(sites[0])
	if !reflect.DeepEqual(got, []string{"Failed to send some messages"}) {
		t.Errorf("BackwardStrings = %v", got)
	}
}

func TestBackwardStringsThroughAssign(t *testing.T) {
	g := Build(testRelease())
	sites := g.CallSitesOf("android.app.Activity", "startActivityForResult")
	if len(sites) != 1 {
		t.Fatalf("sites = %d", len(sites))
	}
	got := g.BackwardStrings(sites[0])
	// The action string flows through the assign; the NewObj is a sink.
	if !reflect.DeepEqual(got, []string{"android.media.action.IMAGE_CAPTURE"}) {
		t.Errorf("BackwardStrings = %v", got)
	}
}

func TestIntentSends(t *testing.T) {
	g := Build(testRelease())
	sends := g.IntentSends()
	if len(sends) != 1 {
		t.Fatalf("intent sends = %d, want 1", len(sends))
	}
	if sends[0].Actions[0] != "android.media.action.IMAGE_CAPTURE" {
		t.Errorf("action = %q", sends[0].Actions[0])
	}
	if sends[0].Site.Class() != "com.test.app.Mailer" {
		t.Errorf("site class = %q", sends[0].Site.Class())
	}
}

func TestContentQueries(t *testing.T) {
	g := Build(testRelease())
	queries := g.ContentQueries()
	if len(queries) != 1 {
		t.Fatalf("content queries = %d, want 1", len(queries))
	}
	if queries[0].URIs[0] != "content://contacts" {
		t.Errorf("uri = %q", queries[0].URIs[0])
	}
}

func TestErrorMessages(t *testing.T) {
	g := Build(testRelease())
	msgs := g.ErrorMessages()
	if len(msgs) != 1 {
		t.Fatalf("error messages = %d, want 1", len(msgs))
	}
	if msgs[0].Texts[0] != "Failed to send some messages" {
		t.Errorf("text = %q", msgs[0].Texts[0])
	}
	if msgs[0].Site.Class() != "com.test.app.MainActivity" {
		t.Errorf("class = %q", msgs[0].Site.Class())
	}
}

func TestExceptionSites(t *testing.T) {
	g := Build(testRelease())
	sites := g.ExceptionSites()
	var thrown, caught []string
	for _, s := range sites {
		if s.Caught {
			caught = append(caught, s.Exception)
		} else {
			thrown = append(thrown, s.Exception)
		}
	}
	if !reflect.DeepEqual(thrown, []string{"SendException"}) {
		t.Errorf("thrown = %v", thrown)
	}
	if !reflect.DeepEqual(caught, []string{"SecurityException"}) {
		t.Errorf("caught = %v", caught)
	}
}

func TestClassDependencyCount(t *testing.T) {
	g := Build(testRelease())
	if got := g.ClassDependencyCount("com.test.app.MainActivity"); got != 1 {
		t.Errorf("MainActivity deps = %d, want 1 (Mailer)", got)
	}
	if got := g.ClassDependencyCount("com.test.app.Contacts"); got != 0 {
		t.Errorf("Contacts deps = %d, want 0", got)
	}
}

func TestFrameworkCalls(t *testing.T) {
	g := Build(testRelease())
	calls := g.FrameworkCalls()
	// Toast.makeText, SmsManager.sendTextMessage, Activity.startActivityForResult,
	// ContentResolver.query — the app-internal Mailer.sendAll call is excluded.
	if len(calls) != 4 {
		t.Errorf("framework calls = %d, want 4", len(calls))
	}
	for _, s := range calls {
		if s.Statement().InvokeClass == "com.test.app.Mailer" {
			t.Error("app-internal call listed as framework call")
		}
	}
}

func TestMethodsSorted(t *testing.T) {
	g := Build(testRelease())
	ms := g.Methods()
	for i := 1; i < len(ms); i++ {
		if ms[i-1].QualifiedName() > ms[i].QualifiedName() {
			t.Fatal("Methods() not sorted")
		}
	}
	if _, ok := g.Method("com.test.app.Mailer.sendAll"); !ok {
		t.Error("Method lookup failed")
	}
}
