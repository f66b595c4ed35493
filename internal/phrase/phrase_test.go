package phrase

import (
	"reflect"
	"strings"
	"testing"
)

func TestExtractVerbPhrases(t *testing.T) {
	e := NewExtractor()
	tests := []struct {
		sentence string
		wantVP   string
	}{
		{"unable to fetch mail on samsung", "fetch mail"},
		{"i cannot send sms to my friends", "send sms"},
		{"the app cannot save photos", "save photos"},
		{"uploading photos error appears when i upload photos", "upload photos"},
	}
	for _, tt := range tests {
		ex := e.ExtractSentence(tt.sentence)
		found := false
		for _, vp := range ex.VerbPhrases {
			if vp.String() == tt.wantVP {
				found = true
			}
		}
		if !found {
			var got []string
			for _, vp := range ex.VerbPhrases {
				got = append(got, vp.String())
			}
			t.Errorf("%q: verb phrases %v missing %q", tt.sentence, got, tt.wantVP)
		}
	}
}

func TestExtractVerbPhraseNegation(t *testing.T) {
	e := NewExtractor()
	ex := e.ExtractSentence("the app does not contain any bugs")
	if len(ex.VerbPhrases) == 0 {
		t.Fatal("no verb phrases")
	}
	vp := ex.VerbPhrases[0]
	if vp.Verb != "contain" {
		t.Errorf("verb = %q, want contain", vp.Verb)
	}
	if !vp.Negated {
		t.Error("phrase should be negated")
	}
	if vp.ObjectHead() != "bugs" {
		t.Errorf("object head = %q, want bugs", vp.ObjectHead())
	}
}

func TestExtractPassive(t *testing.T) {
	e := NewExtractor()
	ex := e.ExtractSentence("the picture gets flipped")
	found := false
	for _, vp := range ex.VerbPhrases {
		if vp.Verb == "flip" && vp.ObjectHead() == "picture" && vp.Passive {
			found = true
		}
	}
	if !found {
		t.Errorf("passive 'flip picture' not extracted: %+v", ex.VerbPhrases)
	}
}

func TestExtractNounPhrases(t *testing.T) {
	e := NewExtractor()
	ex := e.ExtractSentence("the app does not contain any bugs")
	var texts []string
	for _, np := range ex.NounPhrases {
		texts = append(texts, np.String())
	}
	for _, want := range []string{"the app", "any bugs"} {
		ok := false
		for _, got := range texts {
			if got == want {
				ok = true
			}
		}
		if !ok {
			t.Errorf("noun phrases %v missing %q", texts, want)
		}
	}
}

func TestNounPhraseParts(t *testing.T) {
	e := NewExtractor()
	ex := e.ExtractSentence("the last phone call failed")
	if len(ex.NounPhrases) == 0 {
		t.Fatal("no noun phrases")
	}
	np := ex.NounPhrases[0]
	if np.Head != "call" {
		t.Errorf("head = %q, want call", np.Head)
	}
	wantMods := []string{"last", "phone"}
	if !reflect.DeepEqual(np.Modifiers, wantMods) {
		t.Errorf("modifiers = %v, want %v", np.Modifiers, wantMods)
	}
	if got := np.ContentWords(); !reflect.DeepEqual(got, []string{"last", "phone", "call"}) {
		t.Errorf("content words = %v", got)
	}
}

func TestLemma(t *testing.T) {
	tests := map[string]string{
		"fetches": "fetch", "sent": "send", "crashes": "crash",
		"flipped": "flip", "uploading": "upload", "tries": "try",
		"saved": "save", "broke": "break", "syncs": "sync", "send": "send",
	}
	for in, want := range tests {
		if got := lemma(in); got != want {
			t.Errorf("lemma(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestErrorModifier(t *testing.T) {
	e := NewExtractor()
	ex := e.ExtractSentence("a connection error message appeared at the bottom")
	var mods []string
	for _, np := range ex.NounPhrases {
		if m := ErrorModifier(np); m != nil {
			mods = m
			break
		}
	}
	if len(mods) == 0 || mods[0] != "connection" {
		t.Errorf("error modifier = %v, want [connection ...]", mods)
	}

	// Non-error NP yields nil.
	ex = e.ExtractSentence("the reply button")
	for _, np := range ex.NounPhrases {
		if m := ErrorModifier(np); m != nil {
			t.Errorf("unexpected error modifier %v for %q", m, np.String())
		}
	}
}

func TestExceptionType(t *testing.T) {
	e := NewExtractor()
	ex := e.ExtractSentence("there's a socket exception when it polls")
	var words []string
	for _, np := range ex.NounPhrases {
		if w := ExceptionType(np); w != nil {
			words = w
		}
	}
	if len(words) != 1 || words[0] != "socket" {
		t.Errorf("exception type = %v, want [socket]", words)
	}

	ex = e.ExtractSentence("you got a null pointer exception on the login screen")
	words = nil
	for _, np := range ex.NounPhrases {
		if w := ExceptionType(np); w != nil {
			words = w
		}
	}
	if strings.Join(words, " ") != "null pointer" {
		t.Errorf("exception type = %v, want [null pointer]", words)
	}
}

func TestMatchPatterns(t *testing.T) {
	e := NewExtractor()
	tests := []struct {
		sentence string
		pattern  Pattern
		function string
	}{
		{"sync does not work", P1, "sync"},
		{"i cannot register", P2, "register"},
		{"login always fails", P3, "login"},
		{"update button has stopped", P4, "update button"},
	}
	for _, tt := range tests {
		p := e.Parse(tt.sentence)
		matches := MatchPatterns(p)
		found := false
		for _, m := range matches {
			if m.Pattern == tt.pattern && strings.Join(m.Function, " ") == tt.function {
				found = true
			}
		}
		if !found {
			t.Errorf("%q: matches %+v missing %s[%s]", tt.sentence, matches, tt.pattern, tt.function)
		}
	}
}

func TestMatchPatternsNoFalsePositive(t *testing.T) {
	e := NewExtractor()
	for _, s := range []string{
		"the app works great",
		"i love this app",
	} {
		p := e.Parse(s)
		if matches := MatchPatterns(p); len(matches) != 0 {
			t.Errorf("%q: unexpected matches %+v", s, matches)
		}
	}
}

func TestClassifyIntent(t *testing.T) {
	tests := []struct {
		sentence string
		want     Intent
	}{
		{"please add a dark theme", IntentFeatureRequest},
		{"would be nice to have widgets", IntentFeatureRequest},
		{"how do i export my data?", IntentInfoSeeking},
		{"when will the tablet version arrive?", IntentInfoSeeking},
		{"i use nougat 7.0 android version", IntentInfoGiving},
		{"the app crashes on startup", IntentProblem},
		{"great app", IntentOther},
		// Problem dominates a mixed sentence.
		{"please add a fix for the crash", IntentProblem},
	}
	for _, tt := range tests {
		if got := ClassifyIntent(tt.sentence); got != tt.want {
			t.Errorf("ClassifyIntent(%q) = %s, want %s", tt.sentence, got, tt.want)
		}
	}
}

func TestFilterSentences(t *testing.T) {
	kept, filtered := FilterSentences([]string{
		"the app crashes on startup",
		"please add a dark theme",
		"i use nougat 7.0 android version",
		"sync fails every time",
	})
	if filtered != 2 {
		t.Errorf("filtered = %d, want 2", filtered)
	}
	if len(kept) != 2 {
		t.Errorf("kept = %v", kept)
	}
}

func TestIntentShouldFilter(t *testing.T) {
	if IntentProblem.ShouldFilter() || IntentOther.ShouldFilter() {
		t.Error("problem/other sentences must be kept")
	}
	for _, i := range []Intent{IntentFeatureRequest, IntentInfoGiving, IntentInfoSeeking} {
		if !i.ShouldFilter() {
			t.Errorf("%s should be filtered", i)
		}
	}
}

func TestVerbPhraseWords(t *testing.T) {
	vp := VerbPhrase{Verb: "fetch", Object: []string{"new", "mail"}}
	if got := vp.Words(); !reflect.DeepEqual(got, []string{"fetch", "new", "mail"}) {
		t.Errorf("Words() = %v", got)
	}
	if vp.ObjectHead() != "mail" {
		t.Errorf("ObjectHead() = %q", vp.ObjectHead())
	}
	if (VerbPhrase{Verb: "x"}).ObjectHead() != "" {
		t.Error("empty object should yield empty head")
	}
}

func TestPatternString(t *testing.T) {
	if P1.String() != "P1" || P4.String() != "P4" {
		t.Error("pattern String() broken")
	}
}

// String returns the intent name.
func (i Intent) String() string {
	switch i {
	case IntentProblem:
		return "problem"
	case IntentFeatureRequest:
		return "feature-request"
	case IntentInfoGiving:
		return "info-giving"
	case IntentInfoSeeking:
		return "info-seeking"
	default:
		return "other"
	}
}

// FilterSentences drops sentences whose intent must be filtered, returning
// the sentences to feed into phrase extraction and the number filtered.
func FilterSentences(sentences []string) (kept []string, filtered int) {
	for _, s := range sentences {
		if ClassifyIntent(s).ShouldFilter() {
			filtered++
			continue
		}
		kept = append(kept, s)
	}
	return kept, filtered
}

// ContentWords returns the phrase words without determiners/pronouns.
func (n NounPhrase) ContentWords() []string {
	out := make([]string, 0, len(n.Modifiers)+1)
	out = append(out, n.Modifiers...)
	if n.Head != "" {
		out = append(out, n.Head)
	}
	return out
}
