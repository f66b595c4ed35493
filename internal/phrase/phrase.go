// Package phrase extracts the semantic units that ReviewSolver matches
// against code: verb phrases (verb + object, from typed dependencies) and
// noun phrases (from the parse tree), per §3.2.4; the NEON-style semantic
// patterns P1–P4 for vaguely described errors (§4.1.2, Table 5); error-word
// and exception-type detection (§4.1.3, §4.2.3); and the ARDOC-style
// sentence-intent filter that drops feature-request / information-giving /
// information-seeking sentences before localization (§3.2.4).
package phrase

import (
	"strings"

	"reviewsolver/internal/parser"
	"reviewsolver/internal/pos"
	"reviewsolver/internal/textproc"
)

// VerbPhrase is a verb with its object, e.g. {Verb: "fetch", Object:
// ["mail"]} from "unable to fetch mail".
type VerbPhrase struct {
	// Verb is the lower-cased main verb.
	Verb string
	// Object holds the lower-cased object words (head noun last).
	Object []string
	// Negated reports whether the verb carries a neg dependency or a
	// negative auxiliary ("can't send").
	Negated bool
	// Passive reports whether the verb was a passive head whose subject is
	// the semantic object ("the picture gets flipped" → flip picture).
	Passive bool
}

// Words returns the phrase as a word slice (verb first).
func (v VerbPhrase) Words() []string {
	out := make([]string, 0, 1+len(v.Object))
	out = append(out, v.Verb)
	out = append(out, v.Object...)
	return out
}

// String renders the phrase as text.
func (v VerbPhrase) String() string { return strings.Join(v.Words(), " ") }

// ObjectHead returns the head noun of the object (its last word), or "".
func (v VerbPhrase) ObjectHead() string {
	if len(v.Object) == 0 {
		return ""
	}
	return v.Object[len(v.Object)-1]
}

// NounPhrase is a noun phrase from the parse tree, e.g. "the last phone
// call".
type NounPhrase struct {
	// Words are the lower-cased words including determiners.
	Words []string
	// Head is the head noun (last noun of the phrase).
	Head string
	// Modifiers are the non-determiner words before the head.
	Modifiers []string
}

// String renders the phrase as text.
func (n NounPhrase) String() string { return strings.Join(n.Words, " ") }

// Extraction is the result of phrase extraction over one sentence.
type Extraction struct {
	VerbPhrases []VerbPhrase
	NounPhrases []NounPhrase
}

// Extractor extracts phrases from sentences.
type Extractor struct {
	parser *parser.Parser
}

// NewExtractor returns an Extractor whose tagger knows the given proper
// nouns (app-specific vocabulary).
func NewExtractor(properNouns ...string) *Extractor {
	return &Extractor{parser: parser.New(properNouns...)}
}

// UseInterner forwards an interner down to the tagger so extraction runs on
// ID-annotated tokens.
func (e *Extractor) UseInterner(in *textproc.Interner) { e.parser.UseInterner(in) }

// ExtractSentence parses a sentence and extracts its phrases.
func (e *Extractor) ExtractSentence(sentence string) Extraction {
	return e.Extract(e.parser.ParseSentence(sentence))
}

// Parse exposes the underlying parser for callers that need the raw parse.
func (e *Extractor) Parse(sentence string) *parser.Parse {
	return e.parser.ParseSentence(sentence)
}

// Extract pulls verb and noun phrases out of a parse.
//
// Verb phrases come from typed dependencies: for each dobj(v,o) the object
// NP words are attached to the verb; for each nsubjpass(v,s) the passive
// subject serves as the object ("the picture gets flipped" → "flip
// picture"). Noun phrases come from the parse tree's NP nodes (§3.2.4).
func (e *Extractor) Extract(p *parser.Parse) Extraction {
	var ex Extraction

	// Noun phrases from the tree.
	for _, np := range p.Tree.PhrasesLabeled(parser.LabelNP) {
		ex.NounPhrases = append(ex.NounPhrases, buildNounPhrase(p, np))
	}

	// Verb phrases from dependencies.
	negated := make(map[int]bool)
	for _, d := range p.DepsWithRel(parser.RelNeg) {
		negated[d.Head] = true
	}
	objWords := func(objIdx int) []string {
		// Expand the object token to its NP content words via amod/compound.
		words := make([]string, 0, 4)
		for _, d := range p.Deps {
			if d.Head == objIdx && (d.Rel == parser.RelAMod || d.Rel == parser.RelCompound) {
				words = append(words, p.Tokens[d.Dep].Lower)
			}
		}
		words = append(words, p.Tokens[objIdx].Lower)
		return words
	}
	seen := make(map[string]struct{})
	addVP := func(vp VerbPhrase) {
		key := vp.String()
		if _, dup := seen[key]; dup {
			return
		}
		seen[key] = struct{}{}
		ex.VerbPhrases = append(ex.VerbPhrases, vp)
	}
	hasDObj := make(map[int]bool)
	for _, d := range p.DepsWithRel(parser.RelDObj) {
		hasDObj[d.Head] = true
	}
	for _, d := range p.DepsWithRel(parser.RelDObj) {
		verb := p.Tokens[d.Head].Lower
		if isVacuousVerb(verb) {
			continue
		}
		addVP(VerbPhrase{
			Verb:    lemma(verb),
			Object:  objWords(d.Dep),
			Negated: negated[d.Head],
		})
	}
	for _, d := range p.DepsWithRel(parser.RelNSubjPass) {
		verb := p.Tokens[d.Head].Lower
		if isVacuousVerb(verb) {
			continue
		}
		addVP(VerbPhrase{
			Verb:    lemma(verb),
			Object:  objWords(d.Dep),
			Negated: negated[d.Head],
			Passive: true,
		})
	}
	// Verbs whose object arrives via a preposition ("connect to server").
	// Only verbs without a direct object participate, and only through
	// complement prepositions — temporal/locative adjuncts ("for the
	// longest time", "on Samsung") would otherwise create the exact false
	// positives the paper warns about (§2.3 Example 1).
	for _, d := range p.DepsWithRel(parser.RelPrep) {
		verb := p.Tokens[d.Head].Lower
		if isVacuousVerb(verb) || hasDObj[d.Head] {
			continue
		}
		if !isComplementPrep(p.Tokens[d.Dep].Lower) {
			continue
		}
		for _, d2 := range p.DepsWithRel(parser.RelPObj) {
			if d2.Head != d.Dep {
				continue
			}
			addVP(VerbPhrase{
				Verb:    lemma(verb),
				Object:  objWords(d2.Dep),
				Negated: negated[d.Head],
			})
		}
	}
	// Gerund-modifier noun phrases describe actions ("uploading photos
	// error"): synthesize the verb phrase from the gerund and the nouns
	// that follow it, excluding error words.
	for _, np := range p.Tree.PhrasesLabeled(parser.LabelNP) {
		leaves := np.Leaves()
		if len(leaves) < 2 || leaves[0].Token.Tag != pos.VBG {
			continue
		}
		var object []string
		for _, leaf := range leaves[1:] {
			w := leaf.Token.Lower
			if leaf.Token.Tag.IsNoun() && !IsErrorWord(w) {
				object = append(object, w)
			}
		}
		if len(object) > 0 {
			addVP(VerbPhrase{Verb: lemma(leaves[0].Token.Lower), Object: object})
		}
	}
	return ex
}

// isComplementPrep reports whether a preposition typically introduces a
// verb's complement rather than a temporal/locative adjunct.
func isComplementPrep(prep string) bool {
	switch prep {
	case "to", "with", "into", "onto", "from":
		return true
	}
	return false
}

func buildNounPhrase(p *parser.Parse, np *parser.Node) NounPhrase {
	out := NounPhrase{}
	for _, leaf := range np.Leaves() {
		w := leaf.Token.Lower
		out.Words = append(out.Words, w)
		switch {
		case leaf.Token.Tag.IsNoun():
			if out.Head != "" {
				out.Modifiers = append(out.Modifiers, out.Head)
			}
			out.Head = w
		case leaf.Token.Tag == pos.JJ || leaf.Token.Tag == pos.VBN ||
			leaf.Token.Tag == pos.VBG || leaf.Token.Tag == pos.CD:
			out.Modifiers = append(out.Modifiers, w)
		}
	}
	return out
}

// isVacuousVerb filters verbs that carry no localizable semantics.
func isVacuousVerb(v string) bool {
	switch strings.TrimSuffix(v, "s") {
	case "be", "is", "am", "are", "wa", "were", "been",
		"do", "doe", "did", "have", "ha", "had",
		"get", "got", "make", "made", "let", "seem", "look",
		"want", "need", "think", "know", "say", "said", "tell", "told",
		"go", "goe", "went", "come", "came", "keep", "kept", "try", "tried",
		"give", "gave", "happen", "happened", "appear", "appeared":
		return true
	}
	return false
}

// lemma reduces an inflected verb to its base form using the same stemming
// heuristics as the embedding model, with an irregular-verb table on top.
func lemma(v string) string {
	if base, ok := irregularVerbs[v]; ok {
		return base
	}
	switch {
	case strings.HasSuffix(v, "ies") && len(v) > 4:
		return v[:len(v)-3] + "y"
	case strings.HasSuffix(v, "ing") && len(v) > 5:
		v = v[:len(v)-3]
	case strings.HasSuffix(v, "ed") && len(v) > 4:
		v = v[:len(v)-2]
	case strings.HasSuffix(v, "es") && len(v) > 4 &&
		(strings.HasSuffix(v[:len(v)-2], "sh") || strings.HasSuffix(v[:len(v)-2], "ch") ||
			strings.HasSuffix(v[:len(v)-2], "s") || strings.HasSuffix(v[:len(v)-2], "x")):
		v = v[:len(v)-2]
	case strings.HasSuffix(v, "s") && len(v) > 3 && !strings.HasSuffix(v, "ss"):
		v = v[:len(v)-1]
	}
	if len(v) > 3 && v[len(v)-1] == v[len(v)-2] && !strings.ContainsRune("aeiou", rune(v[len(v)-1])) && v[len(v)-1] != 'l' {
		v = v[:len(v)-1]
	}
	return v
}

var irregularVerbs = map[string]string{
	"sent": "send", "sends": "send", "sending": "send",
	"broke": "break", "broken": "break",
	"froze": "freeze", "frozen": "freeze",
	"hung": "hang", "went": "go", "got": "get", "took": "take",
	"taken": "take", "wrote": "write", "written": "write",
	"found": "find", "lost": "lose", "kept": "keep", "made": "make",
	"said": "say", "saw": "see", "seen": "see", "came": "come",
	"gave": "give", "given": "give", "chose": "choose", "chosen": "choose",
	"flipped": "flip", "stopped": "stop", "crashed": "crash",
	"failed": "fail", "tried": "try", "saved": "save", "uploaded": "upload",
	"downloaded": "download", "synced": "sync", "fetched": "fetch",
	"opened": "open", "closed": "close", "updated": "update",
	"does": "do", "did": "do", "has": "have", "had": "have",
	"is": "be", "am": "be", "are": "be", "was": "be", "were": "be",
}

// ErrorWords is the set of error-type nouns used by §4.1.3 ("we first check
// whether the noun phrases contain error related words").
var ErrorWords = map[string]struct{}{
	"error": {}, "errors": {}, "bug": {}, "bugs": {}, "fault": {},
	"faults": {}, "issue": {}, "issues": {}, "problem": {}, "problems": {},
	"glitch": {}, "glitches": {}, "defect": {}, "defects": {},
	"failure": {}, "failures": {},
}

// IsErrorWord reports whether a lower-cased word denotes an error.
func IsErrorWord(w string) bool {
	_, ok := ErrorWords[w]
	return ok
}

// ErrorModifier inspects a noun phrase like "connection error" or
// "certificate issues" and returns the word(s) modifying the error noun, or
// nil when the phrase is not an error-type NP (§4.1.3).
func ErrorModifier(np NounPhrase) []string {
	// Find the first error word anywhere in the phrase ("connection error
	// message": the error word need not be the head).
	errIdx := -1
	for i, w := range np.Words {
		if IsErrorWord(w) {
			errIdx = i
			break
		}
	}
	if errIdx <= 0 {
		return nil
	}
	mods := make([]string, 0, errIdx)
	for _, w := range np.Words[:errIdx] {
		if !IsErrorWord(w) && !textproc.IsStopword(w) {
			mods = append(mods, w)
		}
	}
	if len(mods) == 0 {
		return nil
	}
	return mods
}

// ExceptionType inspects a noun phrase for an exception mention ("socket
// exception", "null pointer exception") and returns the exception-describing
// words before "exception", or nil (§4.2.3 Step 2).
func ExceptionType(np NounPhrase) []string {
	idx := -1
	for i, w := range np.Words {
		if w == "exception" || w == "exceptions" {
			idx = i
			break
		}
	}
	if idx <= 0 {
		return nil
	}
	var words []string
	for _, w := range np.Words[:idx] {
		if !textproc.IsStopword(w) && w != "a" && w != "an" {
			words = append(words, w)
		}
	}
	if len(words) == 0 {
		return nil
	}
	return words
}
