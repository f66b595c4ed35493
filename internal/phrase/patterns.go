package phrase

import (
	"strings"

	"reviewsolver/internal/parser"
	"reviewsolver/internal/pos"
	"reviewsolver/internal/textproc"
)

// Pattern identifies one of the NEON-extracted semantic patterns for vague
// error descriptions (Table 5).
type Pattern int

// The four patterns of Table 5.
const (
	// P1: [function] NEG work — "sync does not work".
	P1 Pattern = iota + 1
	// P2: [subject] NEG [function] — "I cannot register".
	P2
	// P3: [function] fail — "Login always fails".
	P3
	// P4: [function] stopped — "Update button has stopped".
	P4
)

// String returns the pattern name.
func (p Pattern) String() string {
	switch p {
	case P1:
		return "P1"
	case P2:
		return "P2"
	case P3:
		return "P3"
	case P4:
		return "P4"
	default:
		return "?"
	}
}

// PatternMatch records a matched vague-error pattern and the function words
// it names ("sync", "login", "update button").
type PatternMatch struct {
	Pattern  Pattern
	Function []string
}

// MatchPatterns finds the Table 5 patterns in a parsed sentence. The
// [function] slot is filled with the content words of the subject NP (P1,
// P3, P4) or the negated verb (P2).
func MatchPatterns(p *parser.Parse) []PatternMatch {
	var out []PatternMatch
	toks := p.Tokens

	for i, t := range toks {
		switch t.Lower {
		case "work", "works", "working", "worked":
			// P1: function words NEG work — require a preceding negation.
			if negBefore(toks, i) {
				if fn := subjectWords(p, i); len(fn) > 0 {
					out = append(out, PatternMatch{Pattern: P1, Function: fn})
				}
			}
		case "fail", "fails", "failed", "failing":
			// P3: [function] fail.
			if fn := subjectWords(p, i); len(fn) > 0 {
				out = append(out, PatternMatch{Pattern: P3, Function: fn})
			}
		case "stopped", "stops", "stop":
			// P4: [function] stopped — subject is a feature, not a person.
			if fn := subjectWords(p, i); len(fn) > 0 && !isPersonWord(fn[len(fn)-1]) {
				out = append(out, PatternMatch{Pattern: P4, Function: fn})
			}
		}
	}

	// P2: [subject] NEG [function-verb] — "I cannot register".
	for _, d := range p.DepsWithRel(parser.RelNeg) {
		verb := toks[d.Head]
		if !verb.Tag.IsVerb() {
			continue
		}
		lower := verb.Lower
		if lower == "work" || lower == "works" || isVacuousVerb(lower) {
			continue
		}
		// Only bare verbs (no object) are "vague": "I cannot register".
		hasObj := false
		for _, od := range p.DepsWithRel(parser.RelDObj) {
			if od.Head == d.Head {
				hasObj = true
			}
		}
		if !hasObj {
			out = append(out, PatternMatch{Pattern: P2, Function: []string{lemma(lower)}})
		}
	}
	// Also catch NEG directly before a verb at the token level ("cannot
	// register" where the dependency pass missed the clause).
	if len(out) == 0 {
		for i := 1; i < len(toks); i++ {
			if toks[i-1].Tag == pos.NEG && toks[i].Tag.IsVerb() &&
				!isVacuousVerb(toks[i].Lower) && (i+1 == len(toks) || !toks[i+1].Tag.IsNoun()) {
				out = append(out, PatternMatch{Pattern: P2, Function: []string{lemma(toks[i].Lower)}})
			}
		}
	}
	return out
}

// negBefore reports whether a negation token occurs within three tokens
// before index i.
func negBefore(toks []pos.TaggedToken, i int) bool {
	for j := i - 1; j >= 0 && j >= i-3; j-- {
		if toks[j].Tag == pos.NEG {
			return true
		}
	}
	return false
}

// subjectWords returns the content words of the subject NP of the verb at
// index verbIdx.
func subjectWords(p *parser.Parse, verbIdx int) []string {
	for _, d := range p.Deps {
		if (d.Rel == parser.RelNSubj || d.Rel == parser.RelNSubjPass) && d.Head == verbIdx {
			return npContentWordsAt(p, d.Dep)
		}
	}
	// Fallback: content words immediately before the verb.
	var words []string
	for i := verbIdx - 1; i >= 0; i-- {
		t := p.Tokens[i]
		if t.Tag.IsNoun() || t.Tag == pos.VB && i == 0 {
			words = append([]string{t.Lower}, words...)
			continue
		}
		if t.Tag == pos.NEG || t.Tag == pos.MD || t.Tag.IsVerb() || t.Tag == pos.RB {
			continue
		}
		break
	}
	return filterPersonAndStop(words)
}

func npContentWordsAt(p *parser.Parse, headIdx int) []string {
	words := []string{}
	for _, d := range p.Deps {
		if d.Head == headIdx && (d.Rel == parser.RelAMod || d.Rel == parser.RelCompound) {
			words = append(words, p.Tokens[d.Dep].Lower)
		}
	}
	words = append(words, p.Tokens[headIdx].Lower)
	return filterPersonAndStop(words)
}

func filterPersonAndStop(words []string) []string {
	out := words[:0]
	for _, w := range words {
		if isPersonWord(w) || textproc.IsStopword(w) {
			continue
		}
		out = append(out, w)
	}
	return out
}

func isPersonWord(w string) bool {
	switch w {
	case "i", "me", "you", "he", "she", "we", "they", "it", "user", "users",
		"people", "everyone", "anybody", "app", "apps", "application", "phone":
		return true
	}
	return false
}

// Intent classifies a sentence by the author's purpose, following
// Panichella et al.'s taxonomy; ReviewSolver filters out the first three
// before phrase extraction (§3.2.4).
type Intent int

// Intent values.
const (
	IntentProblem Intent = iota + 1 // problem discovery (kept)
	IntentFeatureRequest
	IntentInfoGiving
	IntentInfoSeeking
	IntentOther
)

// ShouldFilter reports whether a sentence with this intent must be excluded
// from phrase extraction.
func (i Intent) ShouldFilter() bool {
	switch i {
	case IntentFeatureRequest, IntentInfoGiving, IntentInfoSeeking:
		return true
	}
	return false
}

var featureRequestCues = []string{
	"please add", "pls add", "add a", "add an", "add the", "would be nice",
	"would be great", "would love", "wish it", "wish there", "hope you",
	"hope to see", "should add", "could you add", "can you add", "i want a",
	"it needs a", "needs an option", "need an option", "option to", "feature request",
	"suggestion", "it would help", "please include", "please support",
	"please make", "should have", "missing feature", "please bring",
	"would like to see", "if you could add",
}

var infoSeekingCues = []string{
	"how do i", "how can i", "how to", "is there a way", "is there any way",
	"can someone", "does anyone", "anyone know", "any idea", "what is the",
	"where is the", "when will", "can you tell", "could you tell",
	"why does", "why is", "why do",
}

var infoGivingCues = []string{
	"i use", "i am using", "i'm using", "im using", "my device is",
	"running android", "android version", "using nougat", "using oreo",
	"for reference", "fyi", "just so you know", "my phone is", "on a galaxy",
	"i have a", "i own a",
}

var problemCues = []string{
	"crash", "error", "bug", "fail", "broken", "freeze", "frozen", "stuck",
	"doesn't work", "doesnt work", "does not work", "not working",
	"won't", "wont", "can't", "cant", "cannot", "unable", "problem", "issue",
	"stopped working", "force close", "hangs", "glitch",
}

// ClassifyIntent assigns an intent to one sentence using cue phrases, the
// strategy of the ARDOC classifier re-expressed as deterministic rules.
// Problem cues dominate: a sentence that both requests a feature and
// reports a crash is kept as a problem sentence.
func ClassifyIntent(sentence string) Intent {
	s := " " + strings.ToLower(sentence) + " "
	for _, cue := range problemCues {
		if strings.Contains(s, cue) {
			return IntentProblem
		}
	}
	for _, cue := range featureRequestCues {
		if strings.Contains(s, cue) {
			return IntentFeatureRequest
		}
	}
	isQuestion := strings.Contains(sentence, "?")
	for _, cue := range infoSeekingCues {
		if strings.Contains(s, cue) {
			return IntentInfoSeeking
		}
	}
	if isQuestion {
		return IntentInfoSeeking
	}
	for _, cue := range infoGivingCues {
		if strings.Contains(s, cue) {
			return IntentInfoGiving
		}
	}
	return IntentOther
}
