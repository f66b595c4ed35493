package qa

import (
	"reflect"
	"testing"

	"reviewsolver/internal/sdk"
)

func TestParseSnippet(t *testing.T) {
	catalog := sdk.NewCatalog()
	snippet := `
// send a text message
SmsManager sms = SmsManager.getDefault();
sms.sendTextMessage(number, null, text, null, null);
Socket sock = new Socket();
sock.connect(addr);
unknownVar.someCall();
`
	refs := ParseSnippet(snippet, catalog)
	want := []APIRef{
		{Class: "android.telephony.SmsManager", Method: "sendTextMessage"},
		{Class: "java.net.Socket", Method: "connect"},
	}
	if !reflect.DeepEqual(refs, want) {
		t.Errorf("ParseSnippet = %v, want %v", refs, want)
	}
}

func TestParseSnippetStaticCall(t *testing.T) {
	catalog := sdk.NewCatalog()
	refs := ParseSnippet("Toast.makeText(ctx, msg, 0);", catalog)
	if len(refs) != 1 || refs[0].Method != "makeText" {
		t.Errorf("static call parse = %v", refs)
	}
}

func TestParseSnippetDedup(t *testing.T) {
	catalog := sdk.NewCatalog()
	refs := ParseSnippet("Socket s = new Socket();\ns.connect(a);\ns.connect(b);", catalog)
	if len(refs) != 1 {
		t.Errorf("duplicate API not deduplicated: %v", refs)
	}
}

func TestGenerateCorpus(t *testing.T) {
	catalog := sdk.NewCatalog()
	corpus := GenerateCorpus(catalog)
	if len(corpus) < 50 {
		t.Errorf("corpus suspiciously small: %d questions", len(corpus))
	}
	// Every generated snippet must parse to at least one API.
	for _, q := range corpus {
		refs := ParseSnippet(q.Snippets[0], catalog)
		if len(refs) == 0 {
			t.Errorf("question %q has unparseable snippet:\n%s", q.Title, q.Snippets[0])
		}
	}
}

func TestIndexTopAPIs(t *testing.T) {
	catalog := sdk.NewCatalog()
	idx := NewIndex(catalog, GenerateCorpus(catalog))
	if idx.Len() == 0 {
		t.Fatal("empty index")
	}

	// §2.3 Example 6: "404 error" should surface WebView.loadUrl among the
	// top APIs.
	apis := idx.TopAPIs([]string{"404", "error"}, 5)
	found := false
	for _, a := range apis {
		if a.Class == "android.webkit.WebView" && a.Method == "loadUrl" {
			found = true
		}
	}
	if !found {
		t.Errorf("404 error top APIs = %v, want WebView.loadUrl included", apis)
	}

	// "download file" must surface connection/file APIs.
	apis = idx.TopAPIs([]string{"download", "file"}, 5)
	if len(apis) == 0 {
		t.Fatal("no APIs for 'download file'")
	}

	// Inflected phrase ("downloading files") matches via stemming.
	apis2 := idx.TopAPIs([]string{"downloading", "files"}, 5)
	if len(apis2) == 0 {
		t.Error("stemmed phrase found no APIs")
	}
}

func TestTopAPIsKBound(t *testing.T) {
	catalog := sdk.NewCatalog()
	idx := NewIndex(catalog, GenerateCorpus(catalog))
	apis := idx.TopAPIs([]string{"download", "file"}, 2)
	if len(apis) > 2 {
		t.Errorf("k=2 returned %d APIs", len(apis))
	}
	if got := idx.TopAPIs(nil, 5); got != nil {
		t.Errorf("empty phrase returned %v", got)
	}
	if got := idx.TopAPIs([]string{"zzz", "qqq"}, 5); got != nil {
		t.Errorf("unknown phrase returned %v", got)
	}
}

func TestTopAPIsDeterministic(t *testing.T) {
	catalog := sdk.NewCatalog()
	idx := NewIndex(catalog, GenerateCorpus(catalog))
	a := idx.TopAPIs([]string{"save", "photos"}, 5)
	b := idx.TopAPIs([]string{"save", "photos"}, 5)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("non-deterministic: %v vs %v", a, b)
	}
}

func TestAPIRefKey(t *testing.T) {
	r := APIRef{Class: "java.net.Socket", Method: "connect"}
	if r.Key() != "java.net.Socket.connect" {
		t.Errorf("Key = %q", r.Key())
	}
}

func TestTaskCount(t *testing.T) {
	if TaskCount() < 20 {
		t.Errorf("only %d task templates", TaskCount())
	}
}

// ParseSnippet is parseSnippet with the catalog's short-class map built
// per call.
func ParseSnippet(snippet string, catalog *sdk.Catalog) []APIRef {
	return parseSnippet(snippet, catalog, shortClassIndex(catalog))
}

// TaskCount returns the number of general-task templates.
func TaskCount() int { return len(generalTasks) + len(generalTasksExtra) }
