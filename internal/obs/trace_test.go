package obs

import (
	"bytes"
	"testing"
)

func validTrace() *ReviewTrace {
	tr := NewReviewTrace("cannot fetch mail")
	tr.IsError = true
	tr.Release = "1.7"
	tr.AddStage("classify", "review", 0)
	tr.AddStage("app_specific", "localize", 1)
	tr.AddMatch(MatchTrace{
		Phrase: "fetch mail", Class: "com.app.MailFetcher", Method: "fetchMail",
		Stage: "app_specific", Source: "method name",
		Evidence: "method name fetchMail", Similarity: 0.97,
	})
	tr.AddScan(ScanTrace{
		Stage: "app_specific", Matrix: "method_phrases", Phrase: "fetch mail",
		Rows: 45, Pruned: 41, Evaluated: 4, Matched: 1,
	})
	tr.Ranked = []RankedTrace{{
		Rank: 1, Class: "com.app.MailFetcher", Importance: 1,
		Matches: tr.MatchesFor("com.app.MailFetcher"),
	}}
	return tr
}

// TestTraceJSONGolden pins the artifact encoding end to end: field names,
// ordering, and the byte-for-byte reproducibility the explain gate depends
// on.
func TestTraceJSONGolden(t *testing.T) {
	tr := validTrace()
	a, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same trace encoded to different bytes")
	}
	for _, want := range []string{
		`"schema_version": 1`,
		`"review": "cannot fetch mail"`,
		`"source": "method name"`,
		`"similarity": 0.97`,
		`"pruned": 41`,
		`"rank": 1`,
	} {
		if !bytes.Contains(a, []byte(want)) {
			t.Errorf("encoded trace missing %s:\n%s", want, a)
		}
	}
}
