// Package core implements ReviewSolver: the review-analysis pipeline of
// §3.2, the static-analysis information extraction of §3.3, the per-context
// localizers of §4.1–4.2, and the class ranking of §4.3.
package core

import (
	"sort"
	"strings"

	"reviewsolver/internal/apg"
	"reviewsolver/internal/apk"
	"reviewsolver/internal/gui"
	"reviewsolver/internal/pos"
	"reviewsolver/internal/sdk"
	"reviewsolver/internal/textproc"
	"reviewsolver/internal/wordvec"
)

// MethodPhrase is a verb phrase derived from a method name (§4.1.1). Its
// embedding is the matching row of the release's method-phrase matrix.
type MethodPhrase struct {
	// Method is the source method.
	Method *apk.Method
	// Words is the derived phrase ("get email").
	Words []string
	// FromSummary marks phrases predicted by the code summarizer rather
	// than derived from the raw method name.
	FromSummary bool
}

// APIUse is one framework API invoked by the app, with the phrases it can
// be described by.
type APIUse struct {
	API sdk.API
	// Classes are the app classes invoking the API.
	Classes []string
	// PhraseVecs are the embeddings of the API's describing phrases
	// (method-name phrase + description phrase + permission nouns).
	PhraseVecs []wordvec.Vector
	// Phrases holds the corresponding word slices (for explanations).
	Phrases [][]string
}

// URIUse is one content-provider URI accessed by the app.
type URIUse struct {
	URI sdk.URI
	// Nouns are extracted from the protecting permission's description.
	Nouns []string
	// Classes access the URI.
	Classes []string
}

// IntentUse is one intent action the app dispatches.
type IntentUse struct {
	Action string
	// Nouns are the common-intent nouns for the action.
	Nouns []string
	// Classes dispatch the intent.
	Classes []string
}

// MessageUse is one user-visible message and the classes raising it.
type MessageUse struct {
	Text    string
	Classes []string
}

// StaticInfo is the §3.3.2 extraction result for one release: the seven
// kinds of information ReviewSolver correlates reviews against.
type StaticInfo struct {
	Release *apk.Release
	Graph   *apg.Graph

	// (1) permissions and activities.
	Permissions      []string
	StartingActivity string

	// (2) APIs / URIs / intents.
	APIs    []APIUse
	URIs    []URIUse
	Intents []IntentUse

	// (3) error messages.
	Messages []MessageUse

	// (4) class/method names as phrases, and (5) method summarization.
	MethodPhrases []MethodPhrase

	// apiClasses indexes the classes calling each API by "class.method".
	apiClasses map[string][]string

	// (6) visible and (7) invisible GUI label information.
	GUIs []gui.ActivityGUI

	// Exceptions thrown/caught by developer methods.
	Exceptions []apg.ExceptionSite

	// --- flattened scan state (built once by buildScanState) -----------------
	//
	// The kernel matcher walks these contiguous structure-of-arrays blocks
	// of precomputed embeddings, so query-time matching never re-embeds
	// static text; the structs above stay for evidence strings.

	// methodMatrix rows are the embeddings of MethodPhrases, in order.
	methodMatrix *wordvec.Matrix

	// invisibleMatrix holds the embedding of every non-empty widget-id
	// phrase; invisibleRows maps its rows back to (GUI index, widget index),
	// in nested GUI×widget order.
	invisibleMatrix *wordvec.Matrix
	invisibleRows   []invisibleRef

	// uriNounVecs[i] is the phrase embedding of URIs[i].Nouns (zero vector
	// when the noun list is empty).
	uriNounVecs []wordvec.Vector

	// intentNounVecs[i][j] is the embedding of Intents[i].Nouns[j].
	intentNounVecs [][]wordvec.Vector

	// descWords[i] is APIs[i].API.Description tokenized once — the seed
	// re-ran textproc.Words per (noun-phrase, API) pair.
	descWords [][]string

	// normMessages[i] is normalizeMessage(Messages[i].Text), precomputed —
	// the seed retokenized every app message once per quoted review span.
	normMessages []string
}

// invisibleRef addresses one widget-id phrase: GUIs[GUI].InvisibleWords[Widget].
type invisibleRef struct {
	GUI    int32
	Widget int32
}

// ExtractStatic runs the §3.3.2 extraction over one release.
func (s *Solver) ExtractStatic(r *apk.Release) *StaticInfo {
	g := apg.Build(r)
	info := &StaticInfo{
		Release:     r,
		Graph:       g,
		Permissions: append([]string(nil), r.Manifest.Permissions...),
		GUIs:        gui.Recover(r, g),
		Exceptions:  g.ExceptionSites(),
	}
	if act, ok := r.StartingActivity(); ok {
		info.StartingActivity = act.Name
	}
	info.extractAPIs(s, g)
	info.extractURIs(s, g)
	info.extractIntents(s, g)
	info.extractMessages(g)
	info.extractMethodPhrases(s, g)
	info.buildScanState(s)
	return info
}

// buildScanState embeds the method phrases (§4.1.1) and the expanded
// widget-id word lists (§4.1.2) into the contiguous matrices the kernel
// matcher scans, and precomputes the static-text caches (tokenized API
// descriptions, normalized messages, URI/intent noun vectors). Everything
// here is derived deterministically from fields built above; after this
// call the StaticInfo is read-only.
func (info *StaticInfo) buildScanState(s *Solver) {
	info.methodMatrix = wordvec.NewMatrix(len(info.MethodPhrases))
	for i := range info.MethodPhrases {
		info.methodMatrix.Append(s.vec.PhraseVector(info.MethodPhrases[i].Words))
	}
	info.methodMatrix.Finish()

	info.invisibleMatrix = wordvec.NewMatrix(0)
	for gi := range info.GUIs {
		for wi, idWords := range info.GUIs[gi].InvisibleWords {
			if len(idWords) == 0 {
				continue
			}
			info.invisibleMatrix.Append(s.vec.PhraseVector(idWords))
			info.invisibleRows = append(info.invisibleRows, invisibleRef{GUI: int32(gi), Widget: int32(wi)})
		}
	}
	info.invisibleMatrix.Finish()

	info.uriNounVecs = make([]wordvec.Vector, len(info.URIs))
	for i := range info.URIs {
		if len(info.URIs[i].Nouns) > 0 {
			info.uriNounVecs[i] = s.vec.PhraseVector(info.URIs[i].Nouns)
		}
	}

	info.intentNounVecs = make([][]wordvec.Vector, len(info.Intents))
	for i := range info.Intents {
		vecs := make([]wordvec.Vector, len(info.Intents[i].Nouns))
		for j, noun := range info.Intents[i].Nouns {
			vecs[j] = s.vec.PhraseVector([]string{noun})
		}
		info.intentNounVecs[i] = vecs
	}

	info.descWords = make([][]string, len(info.APIs))
	for i := range info.APIs {
		info.descWords[i] = textproc.Words(info.APIs[i].API.Description)
	}

	info.normMessages = make([]string, len(info.Messages))
	for i := range info.Messages {
		info.normMessages[i] = normalizeMessage(info.Messages[i].Text)
	}
}

// extractAPIs inventories the framework APIs the app calls, with their
// describing phrases (§4.2.1: signature phrase, description phrases,
// permission nouns).
func (info *StaticInfo) extractAPIs(s *Solver, g *apg.Graph) {
	type agg struct {
		api     sdk.API
		classes map[string]struct{}
	}
	uses := make(map[string]*agg)
	for _, site := range g.FrameworkCalls() {
		st := site.Statement()
		api, ok := s.catalog.LookupAPI(st.InvokeClass, st.InvokeMethod)
		if !ok {
			continue
		}
		key := api.Class + "." + api.Method
		a, exists := uses[key]
		if !exists {
			a = &agg{api: api, classes: make(map[string]struct{})}
			uses[key] = a
		}
		a.classes[site.Class()] = struct{}{}
	}
	keys := make([]string, 0, len(uses))
	for k := range uses {
		keys = append(keys, k)
	}
	sortStrings(keys)
	info.apiClasses = make(map[string][]string, len(keys))
	for _, k := range keys {
		a := uses[k]
		use := APIUse{API: a.api, Classes: sortedKeys(a.classes)}
		for _, phrase := range apiPhrases(a.api) {
			use.Phrases = append(use.Phrases, phrase)
			use.PhraseVecs = append(use.PhraseVecs, s.vec.PhraseVector(phrase))
		}
		info.APIs = append(info.APIs, use)
		info.apiClasses[k] = use.Classes
	}
}

// APIClasses returns the app classes invoking the given framework API.
func (info *StaticInfo) APIClasses(class, method string) []string {
	return info.apiClasses[class+"."+method]
}

// apiPhrases derives the describing phrases of an API: the method-name
// verb phrase, the content words of the documentation sentence, and (as a
// short phrase) the class noun.
func apiPhrases(api sdk.API) [][]string {
	var out [][]string
	if name := methodNamePhrase(api.Method, api.ShortClass()); len(name) > 0 {
		out = append(out, name)
	}
	if desc := contentWords(api.Description); len(desc) > 0 {
		out = append(out, desc)
	}
	return out
}

// contentWords filters a sentence down to non-stopword words.
func contentWords(sentence string) []string {
	words := textproc.Words(sentence)
	out := make([]string, 0, len(words))
	for _, w := range words {
		if !textproc.IsStopword(w) {
			out = append(out, w)
		}
	}
	return out
}

// extractURIs inventories the content-provider URIs with the nouns of their
// protecting permissions (§4.2.1).
func (info *StaticInfo) extractURIs(s *Solver, g *apg.Graph) {
	type agg struct {
		uri     sdk.URI
		classes map[string]struct{}
	}
	uses := make(map[string]*agg)
	for _, q := range g.ContentQueries() {
		for _, u := range q.URIs {
			perm, ok := s.catalog.URIPermission(u)
			if !ok {
				continue
			}
			a, exists := uses[u]
			if !exists {
				a = &agg{uri: sdk.URI{URI: u, Permission: perm},
					classes: make(map[string]struct{})}
				uses[u] = a
			}
			a.classes[q.Site.Class()] = struct{}{}
		}
	}
	keys := make([]string, 0, len(uses))
	for k := range uses {
		keys = append(keys, k)
	}
	sortStrings(keys)
	for _, k := range keys {
		a := uses[k]
		nouns := permissionNouns(s.catalog, a.uri.Permission)
		info.URIs = append(info.URIs, URIUse{
			URI:     a.uri,
			Nouns:   nouns,
			Classes: sortedKeys(a.classes),
		})
	}
}

// permissionFormulaWords are the boilerplate words of Android permission
// descriptions ("Allows an application to read the user's …") that carry no
// object information.
var permissionFormulaWords = map[string]struct{}{
	"allow": {}, "allows": {}, "allowed": {},
	"application": {}, "applications": {}, "app": {}, "apps": {},
	"user": {}, "users": {}, "user's": {},
	"access": {}, "read": {}, "write": {}, "open": {}, "initiate": {},
	"keep": {}, "set": {}, "discover": {}, "pair": {}, "add": {},
	"device": {}, "only": {}, "system": {},
}

// permissionNouns extracts the object words from a permission description
// ("Allows an application to read the user's call log." → call, log). The
// descriptions are formulaic, so a boilerplate skiplist beats POS tagging
// here (possessives like "user's" defeat the tagger's noun detection).
func permissionNouns(catalog *sdk.Catalog, permission string) []string {
	desc, ok := catalog.PermissionDescription(permission)
	if !ok {
		return nil
	}
	var nouns []string
	for _, w := range textproc.Words(desc) {
		if textproc.IsStopword(w) {
			continue
		}
		if _, formula := permissionFormulaWords[w]; formula {
			continue
		}
		nouns = append(nouns, w)
	}
	return nouns
}

// extractIntents inventories the dispatched intent actions with their
// common-intent nouns (§4.2.1).
func (info *StaticInfo) extractIntents(s *Solver, g *apg.Graph) {
	nounsFor := make(map[string][]string, len(s.catalog.Intents()))
	for _, in := range s.catalog.Intents() {
		nounsFor[in.Action] = in.Nouns
	}
	type agg struct {
		classes map[string]struct{}
	}
	uses := make(map[string]*agg)
	for _, send := range g.IntentSends() {
		for _, action := range send.Actions {
			if _, known := nounsFor[action]; !known {
				continue
			}
			a, exists := uses[action]
			if !exists {
				a = &agg{classes: make(map[string]struct{})}
				uses[action] = a
			}
			a.classes[send.Site.Class()] = struct{}{}
		}
	}
	keys := make([]string, 0, len(uses))
	for k := range uses {
		keys = append(keys, k)
	}
	sortStrings(keys)
	for _, action := range keys {
		info.Intents = append(info.Intents, IntentUse{
			Action:  action,
			Nouns:   nounsFor[action],
			Classes: sortedKeys(uses[action].classes),
		})
	}
}

// extractMessages inventories the user-visible message strings (§3.3.2).
func (info *StaticInfo) extractMessages(g *apg.Graph) {
	byText := make(map[string]map[string]struct{})
	for _, m := range g.ErrorMessages() {
		for _, text := range m.Texts {
			set, ok := byText[text]
			if !ok {
				set = make(map[string]struct{})
				byText[text] = set
			}
			set[m.Site.Class()] = struct{}{}
		}
	}
	keys := make([]string, 0, len(byText))
	for k := range byText {
		keys = append(keys, k)
	}
	sortStrings(keys)
	for _, text := range keys {
		info.Messages = append(info.Messages, MessageUse{
			Text:    text,
			Classes: sortedKeys(byText[text]),
		})
	}
}

// extractMethodPhrases converts method names into verb phrases (§4.1.1) and
// adds code-summarization phrases for methods whose names are meaningless.
func (info *StaticInfo) extractMethodPhrases(s *Solver, g *apg.Graph) {
	for _, m := range g.Methods() {
		phrase := methodNamePhrase(m.Name, shortClassName(m.Class))
		if len(phrase) > 0 {
			info.MethodPhrases = append(info.MethodPhrases, MethodPhrase{
				Method: m,
				Words:  phrase,
			})
		}
		// Summarization: when the raw name is meaningless (obfuscated), add
		// the predicted word bag as a second phrase.
		if s.summarizer != nil && len(phrase) == 0 {
			if words := s.summarizer.Predict(m, 3); len(words) > 0 {
				info.MethodPhrases = append(info.MethodPhrases, MethodPhrase{
					Method:      m,
					Words:       words,
					FromSummary: true,
				})
			}
		}
	}
}

// methodNamePhrase converts a method name to a verb phrase per §4.1.1:
// camel-case split; a lone verb gets the class-name words as object;
// lifecycle prefixes ("on") are dropped and the component words appended.
func methodNamePhrase(name, shortClass string) []string {
	words := textproc.SplitIdentifier(name)
	if len(words) == 0 {
		return nil
	}
	// Obfuscated names ("a", "b") carry no signal; leave them to the
	// summarizer (§3.3.2).
	if len(words) == 1 && len(words[0]) <= 2 {
		return nil
	}
	if words[0] == "on" {
		// Lifecycle / callback: strip "on", combine with component words.
		words = words[1:]
		if len(words) == 0 {
			return nil
		}
		return append(words, textproc.SplitIdentifier(shortClass)...)
	}
	if !pos.LooksLikeVerb(words[0]) {
		// Names that do not start with a verb ("emailValidator") still form
		// a noun phrase worth matching.
		return words
	}
	if len(words) == 1 {
		// Lone verb: object = class-name words ("move" on
		// MessageListFragment → "move message list fragment").
		return append(words, textproc.SplitIdentifier(shortClass)...)
	}
	return words
}

func shortClassName(class string) string {
	if i := strings.LastIndexByte(class, '.'); i >= 0 {
		return class[i+1:]
	}
	return class
}

func sortStrings(s []string) { sort.Strings(s) }

func sortedKeys(set map[string]struct{}) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sortStrings(out)
	return out
}
