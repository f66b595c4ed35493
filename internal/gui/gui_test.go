package gui

import (
	"reflect"
	"reviewsolver/internal/apg"
	"reviewsolver/internal/apk"
	"strings"
	"testing"
	"time"
)

func testRelease() *apk.Release {
	b := apk.NewBuilder("com.fsck.k9", "K-9 Mail")
	b.Release("5.2", 1, time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC))
	b.LauncherActivity("com.fsck.k9.activity.Accounts", "accounts")
	b.Activity("com.fsck.k9.activity.EditIdentity", "edit_identity")
	b.Activity("com.fsck.k9.activity.setup.AccountSetupBasics", "account_setup")
	b.Layout("accounts", apk.Widget{Type: "LinearLayout", Children: []apk.Widget{
		{Type: "ListView", ID: "accounts_list"},
	}})
	b.Layout("edit_identity", apk.Widget{Type: "LinearLayout", Children: []apk.Widget{
		{Type: "EditText", ID: "reply_to", Hint: "@string/reply_hint"},
		{Type: "Button", ID: "save_btn", Text: "Save"},
	}})
	b.Layout("account_setup", apk.Widget{Type: "LinearLayout", Children: []apk.Widget{
		{Type: "EditText", ID: "account_email", Hint: "@string/account_setup_hint"},
		{Type: "CheckBox", ID: "show_password", Text: "@string/show_password_label"},
		{Type: "Button", ID: "login_btn", Text: "Sign in"},
	}})
	b.StringRes("reply_hint", "Reply to address")
	b.StringRes("account_setup_hint", "Email address")
	b.StringRes("show_password_label", "Show password")
	b.Class("com.fsck.k9.activity.Accounts").
		Method("onCreate",
			apk.ConstString("t", "Welcome to K-9"),
			apk.Invoke("", "android.widget.TextView", "setText", "t"))
	return b.Build().Latest()
}

func TestRecoverVisibleLabels(t *testing.T) {
	r := testRelease()
	guis := Recover(r, apg.Build(r))
	var setup *ActivityGUI
	for i := range guis {
		if guis[i].Activity == "com.fsck.k9.activity.setup.AccountSetupBasics" {
			setup = &guis[i]
		}
	}
	if setup == nil {
		t.Fatal("AccountSetupBasics not recovered")
	}
	joined := ""
	for _, v := range setup.Visible {
		joined += v + "|"
	}
	for _, want := range []string{"Email address", "Show password", "Sign in"} {
		found := false
		for _, v := range setup.Visible {
			if v == want {
				found = true
			}
		}
		if !found {
			t.Errorf("visible labels %q missing %q", joined, want)
		}
	}
}

func TestRecoverInvisibleLabels(t *testing.T) {
	r := testRelease()
	guis := Recover(r, nil)
	var edit *ActivityGUI
	for i := range guis {
		if guis[i].Activity == "com.fsck.k9.activity.EditIdentity" {
			edit = &guis[i]
		}
	}
	if edit == nil {
		t.Fatal("EditIdentity not recovered")
	}
	phrases := edit.InvisiblePhrases()
	want := []string{"reply to", "save button"}
	if !reflect.DeepEqual(phrases, want) {
		t.Errorf("invisible phrases = %v, want %v", phrases, want)
	}
}

func TestDynamicTexts(t *testing.T) {
	r := testRelease()
	guis := Recover(r, apg.Build(r))
	var accounts *ActivityGUI
	for i := range guis {
		if guis[i].Activity == "com.fsck.k9.activity.Accounts" {
			accounts = &guis[i]
		}
	}
	if accounts == nil {
		t.Fatal("Accounts not recovered")
	}
	found := false
	for _, v := range accounts.Visible {
		if v == "Welcome to K-9" {
			found = true
		}
	}
	if !found {
		t.Errorf("dynamic text missing from %v", accounts.Visible)
	}
}

func TestFindByVisibleWord(t *testing.T) {
	r := testRelease()
	guis := Recover(r, nil)
	got := FindByVisibleWord(guis, "password")
	want := []string{"com.fsck.k9.activity.setup.AccountSetupBasics"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("FindByVisibleWord(password) = %v, want %v", got, want)
	}
	if got := FindByVisibleWord(guis, "nonexistentword"); got != nil {
		t.Errorf("unexpected matches %v", got)
	}
}

func TestFindRegistrationActivities(t *testing.T) {
	r := testRelease()
	guis := Recover(r, nil)
	got := FindRegistrationActivities(guis)
	want := []string{"com.fsck.k9.activity.setup.AccountSetupBasics"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("registration activities = %v, want %v", got, want)
	}
}

func TestVisibleWordsLowercase(t *testing.T) {
	r := testRelease()
	guis := Recover(r, nil)
	for i := range guis {
		if guis[i].Activity != "com.fsck.k9.activity.setup.AccountSetupBasics" {
			continue
		}
		if !guis[i].ContainsVisibleWord("EMAIL") {
			t.Error("word containment should be case-insensitive")
		}
	}
}

func TestDynamicWidgets(t *testing.T) {
	b := apk.NewBuilder("com.dyn", "Dyn")
	b.Release("1.0", 1, time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC))
	b.LauncherActivity("com.dyn.MainActivity", "main")
	b.Layout("main", apk.Widget{Type: "LinearLayout"})
	b.Class("com.dyn.MainActivity").
		Method("onCreate",
			apk.NewObj("quotedTextEdit", "android.widget.EditText"),
			apk.NewObj("replyBtn", "android.widget.Button"),
			apk.NewObj("helper", "com.dyn.Helper"))
	r := b.Build().Latest()
	guis := Recover(r, apg.Build(r))
	if len(guis) != 1 {
		t.Fatalf("activities = %d", len(guis))
	}
	phrases := guis[0].InvisiblePhrases()
	want := map[string]bool{"quoted text edit": false, "reply button": false}
	for _, p := range phrases {
		if _, ok := want[p]; ok {
			want[p] = true
		}
		if p == "helper" {
			t.Error("non-widget allocation inferred as widget")
		}
	}
	for p, seen := range want {
		if !seen {
			t.Errorf("dynamic widget phrase %q missing from %v", p, phrases)
		}
	}
}

func TestRecoverSortedAndComplete(t *testing.T) {
	r := testRelease()
	guis := Recover(r, nil)
	if len(guis) != 3 {
		t.Fatalf("recovered %d activities, want 3", len(guis))
	}
	for i := 1; i < len(guis); i++ {
		if guis[i-1].Activity > guis[i].Activity {
			t.Fatal("activities not sorted")
		}
	}
}

// InvisiblePhrases returns the expanded widget-id word lists joined as
// phrases ("show password", "reply button").
func (a *ActivityGUI) InvisiblePhrases() []string {
	out := make([]string, 0, len(a.InvisibleWords))
	for _, words := range a.InvisibleWords {
		out = append(out, strings.Join(words, " "))
	}
	return out
}
