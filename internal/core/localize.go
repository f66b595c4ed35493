package core

import (
	"slices"
	"strings"

	"reviewsolver/internal/apk"
	"reviewsolver/internal/ctxinfo"
	"reviewsolver/internal/gui"
	"reviewsolver/internal/obs"
	"reviewsolver/internal/phrase"
	"reviewsolver/internal/textproc"
	"reviewsolver/internal/wordvec"
)

// Mapping is one correlation between a review phrase and a code location.
type Mapping struct {
	// Phrase is the review phrase that triggered the mapping.
	Phrase string
	// Class is the recommended class.
	Class string
	// Method is the recommended method when one is known ("" otherwise).
	Method string
	// Context identifies the localizer (Table 1 context type) that found
	// the mapping. What the phrase matched (method name, API description,
	// widget id, …) is recorded only in an explain trace's MatchTrace.
	Context ctxinfo.Type
}

// Localize runs every applicable localizer (§4.1 app-specific, §4.2
// general) and returns the combined mappings.
func (s *Solver) Localize(ra *ReviewAnalysis, info *StaticInfo, previous, current *apk.Release) []Mapping {
	return s.localize(ra, info, previous, current, nil, nil)
}

// localizeInput is what a localizer reads: the analyzed review, the static
// extraction of the release it was matched to, that release and its
// predecessor, and the mappings the localizers before it in the table found.
type localizeInput struct {
	ra                *ReviewAnalysis
	info              *StaticInfo
	previous, current *apk.Release
	earlier           []Mapping
}

// localizer is one row of the context-localizer table.
type localizer struct {
	ctx   ctxinfo.Type
	stage string
	// fn records the localizer's matches through e and returns them. The
	// emitter travels by value, so it stays on the caller's stack across
	// this indirect call.
	fn func(s *Solver, e emitter, in localizeInput) []Mapping
}

// localizers lists the nine context localizers (§4.1–4.2) once, in the
// order Localize runs them. Update runs last: §4.1.6 falls back to the
// version diff only when nothing else localized the review.
var localizers = [...]localizer{
	{ctxinfo.AppSpecificTask, stageAppSpecific, (*Solver).localizeAppSpecific},
	{ctxinfo.GUI, stageGUI, (*Solver).localizeGUI},
	{ctxinfo.ErrorMessage, stageErrorMessage, (*Solver).localizeErrorMessage},
	{ctxinfo.OpeningApp, stageOpeningApp, (*Solver).localizeOpeningApp},
	{ctxinfo.RegisteringAccount, stageRegistration, (*Solver).localizeRegistration},
	{ctxinfo.APIURIIntent, stageAPIURIIntent, (*Solver).localizeAPIURIIntent},
	{ctxinfo.GeneralTask, stageGeneralTask, (*Solver).localizeGeneralTask},
	{ctxinfo.Exception, stageException, (*Solver).localizeException},
	{ctxinfo.UpdatingApp, stageUpdate, (*Solver).localizeUpdate},
}

// run invokes the localizer with a fresh emitter.
func (l *localizer) run(s *Solver, tr *obs.ReviewTrace, in localizeInput) []Mapping {
	return l.fn(s, emitter{s: s, tr: tr, sim: s.simHist(), ctx: l.ctx, stage: l.stage}, in)
}

// emitter records one localizer run's matches: match appends the Mapping,
// observes its similarity in the match_similarity histogram and, when an
// explain trace is attached, appends the mirroring MatchTrace; scanned folds
// one phrase×matrix scan count into the prescreen counters and the trace.
// Every localizer records through it, so a mapping and its telemetry cannot
// drift apart.
type emitter struct {
	s     *Solver
	tr    *obs.ReviewTrace
	sim   *obs.Histogram
	ctx   ctxinfo.Type
	stage string
	out   []Mapping
}

// match records that phraseText correlates with class (and method, when
// one is known); source names the information it matched and sim its
// similarity (1 for an exact hit). evidence holds the pieces of the
// MatchTrace's evidence string, which are joined only when an explain
// trace is attached.
func (e *emitter) match(phraseText, class, method, source string, sim float64, evidence ...string) {
	e.out = append(e.out, Mapping{Phrase: phraseText, Class: class, Method: method, Context: e.ctx})
	e.sim.Observe(sim)
	if e.tr != nil {
		e.tr.AddMatch(obs.MatchTrace{
			Phrase: phraseText, Class: class, Method: method,
			Stage: e.stage, Source: source, Evidence: strings.Join(evidence, ""),
			Similarity: sim,
		})
	}
}

// scanned records one phrase's scan over a rows-long matrix.
func (e *emitter) scanned(matrix, phraseText string, rows int, sc wordvec.ScanCount) {
	if e.s.rec != nil || e.tr != nil {
		e.s.noteScan(e.tr, e.stage, matrix, phraseText, rows, sc)
	}
}

// localize is Localize with telemetry: a "localize" span with one child
// span per localizer (when a recorder is installed) and per-stage match
// and scan records in the explain trace (when tr is non-nil). Both default
// off; with neither active the instrumentation is a handful of nil checks
// per review.
func (s *Solver) localize(ra *ReviewAnalysis, info *StaticInfo, previous, current *apk.Release, tr *obs.ReviewTrace, parent *obs.Span) []Mapping {
	sp := parent.Child(stageLocalize)
	if sp == nil {
		sp = s.rec.Start(stageLocalize)
	}
	in := localizeInput{ra: ra, info: info, previous: previous, current: current}
	var out []Mapping
	for i := range localizers {
		l := &localizers[i]
		c := sp.Child(l.stage)
		in.earlier = out
		ms := l.run(s, tr, in)
		c.End()
		tr.AddStage(l.stage, stageLocalize, len(ms))
		out = append(out, ms...)
	}
	sp.End()
	return dedupMappings(out)
}

// LocalizeByContext runs a single context localizer, for per-context
// effectiveness (Table 12) and timing (Table 15) measurements. The update
// localizer runs as if no other localizer had found anything.
func (s *Solver) LocalizeByContext(ctx ctxinfo.Type, ra *ReviewAnalysis, info *StaticInfo, previous, current *apk.Release) []Mapping {
	for i := range localizers {
		if l := &localizers[i]; l.ctx == ctx {
			return l.run(s, nil, localizeInput{ra: ra, info: info, previous: previous, current: current})
		}
	}
	return nil
}

func dedupMappings(ms []Mapping) []Mapping {
	seen := make(map[string]struct{}, len(ms))
	out := ms[:0]
	for _, m := range ms {
		key := m.Phrase + "\x00" + m.Class + "\x00" + m.Method + "\x00" + m.Context.String()
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		out = append(out, m)
	}
	return out
}

// --- §4.1.1 App specific task -------------------------------------------------

// localizeAppSpecific compares each review verb phrase against the verb
// phrases derived from method names and Code2vec summaries, scanning the
// flattened method-phrase matrix with the dot-only kernel and anchor
// prescreen.
func (s *Solver) localizeAppSpecific(e emitter, in localizeInput) []Mapping {
	ra, info := in.ra, in.info
	threshold := s.vec.Threshold()
	for vi := range ra.VerbPhrases {
		prep := s.fe.prep(s, ra.vpKey(vi), ra.VerbPhrases[vi])
		sc := info.methodMatrix.ScanThresholdCount(&prep.q, threshold, 0, len(info.MethodPhrases),
			func(i int, sim float64) {
				mp := &info.MethodPhrases[i]
				m := mp.Method
				if !mp.FromSummary {
					e.match(prep.text, m.Class, m.Name, "method name", sim, "method name ", m.Name)
					return
				}
				var words string // joined only for an explain trace
				if e.tr != nil {
					words = strings.Join(mp.Words, " ")
				}
				e.match(prep.text, m.Class, m.Name, "method summary", sim, "method summary [", words, "]")
			})
		e.scanned("method_phrases", prep.text, len(info.MethodPhrases), sc)
	}
	return e.out
}

// --- §4.1.2 GUI -----------------------------------------------------------------

// widgetNouns are the explicit GUI nouns of case (1) in §4.1.2.
var widgetNouns = map[string]struct{}{
	"button": {}, "buttons": {}, "menu": {}, "tab": {}, "tabs": {},
	"icon": {}, "checkbox": {}, "screen": {}, "page": {}, "list": {},
	"keyboard": {}, "widget": {}, "bar": {}, "dialog": {}, "toggle": {},
	"slider": {}, "spinner": {},
}

// issueNouns are the implicit issue nouns of case (2).
var issueNouns = map[string]struct{}{
	"issue": {}, "issues": {}, "error": {}, "errors": {}, "problem": {},
	"problems": {}, "trouble": {},
}

// localizeGUI maps GUI-related noun phrases and vague-error patterns to the
// activities whose visible/invisible labels mention them.
func (s *Solver) localizeGUI(e emitter, in localizeInput) []Mapping {
	s.guiNounPhrases(&e, in.ra, in.info)
	// Verb phrases against invisible widget-id phrases ("show password").
	for vi := range in.ra.VerbPhrases {
		s.matchInvisible(&e, s.fe.prep(s, in.ra.vpKey(vi), in.ra.VerbPhrases[vi]), in.info)
	}
	s.guiPatterns(&e, in.ra, in.info)
	return e.out
}

// guiNounPhrases handles the noun-phrase cases of §4.1.2: explicit widget
// mentions and implicit issue mentions.
func (s *Solver) guiNounPhrases(e *emitter, ra *ReviewAnalysis, info *StaticInfo) {
	for ni := range ra.NounPhrases {
		np := &ra.NounPhrases[ni]
		// Case (1): explicit widget mention — the modifier words name the
		// widget's purpose ("reply button" → search "reply").
		if _, isWidget := widgetNouns[np.Head]; isWidget && len(np.Modifiers) > 0 {
			for _, mod := range np.Modifiers {
				if textproc.IsStopword(mod) {
					continue
				}
				for _, activity := range gui.FindByVisibleWord(info.GUIs, mod) {
					e.match(ra.npKey(ni), activity, "", "visible label", 1, "visible label contains ", mod)
				}
				s.matchInvisibleWord(e, ra.npKey(ni), mod, info)
			}
		}
		// Case (2): implicit issue mention ("certificate issues") — search
		// the modifying word in the visible labels.
		if _, isIssue := issueNouns[np.Head]; isIssue {
			for _, mod := range np.Modifiers {
				if textproc.IsStopword(mod) || phrase.IsErrorWord(mod) {
					continue
				}
				for _, activity := range gui.FindByVisibleWord(info.GUIs, mod) {
					e.match(ra.npKey(ni), activity, "", "visible label", 1, "visible label contains ", mod)
				}
			}
		}
	}
}

// guiPatterns looks the function words of vague-error patterns (Table 5)
// up in the visible labels.
func (s *Solver) guiPatterns(e *emitter, ra *ReviewAnalysis, info *StaticInfo) {
	for _, pm := range ra.Patterns {
		for _, fn := range pm.Function {
			if textproc.IsStopword(fn) {
				continue
			}
			for _, activity := range gui.FindByVisibleWord(info.GUIs, fn) {
				e.match(strings.Join(pm.Function, " "), activity, "", "visible label", 1,
					pm.Pattern.String(), " function word ", fn)
			}
		}
	}
}

// matchInvisible compares a review phrase against the expanded widget-id
// phrases of each activity by scanning the flattened widget-id matrix (rows
// in nested GUI×widget order). The content-word vector's prescreen query
// comes precomputed on the cached phrase prep.
func (s *Solver) matchInvisible(e *emitter, prep *phrasePrep, info *StaticInfo) {
	sc := info.invisibleMatrix.ScanThresholdCount(&prep.contentQ, s.vec.Threshold(), 0, info.invisibleMatrix.Rows(),
		func(row int, sim float64) {
			ref := info.invisibleRows[row]
			g := &info.GUIs[ref.GUI]
			e.match(prep.text, g.Activity, "", "widget id", sim, "widget id ", g.WidgetIDs[ref.Widget])
		})
	e.scanned("widget_ids", prep.text, info.invisibleMatrix.Rows(), sc)
}

// matchInvisibleWord searches one widget-purpose word ("reply") across the
// expanded widget-id words of each activity (§4.1.2 case 1: "we search the
// word 'reply' that modifies the 'button' in the information related to
// each GUI component").
func (s *Solver) matchInvisibleWord(e *emitter, phraseText, word string, info *StaticInfo) {
	for gi := range info.GUIs {
		g := &info.GUIs[gi]
		for wi, idWords := range g.InvisibleWords {
			matched, sim := false, 0.0
			for _, w := range idWords {
				if w == word {
					matched, sim = true, 1
					break
				}
				if !textproc.IsStopword(w) {
					if ws := s.vec.WordSimilarity(w, word); ws >= s.vec.Threshold() {
						matched, sim = true, ws
						break
					}
				}
			}
			if matched {
				e.match(phraseText, g.Activity, "", "widget id", sim, "widget id ", g.WidgetIDs[wi])
			}
		}
	}
}

func contentOnly(words []string) []string {
	out := make([]string, 0, len(words))
	for _, w := range words {
		if !textproc.IsStopword(w) {
			out = append(out, w)
		}
	}
	return out
}

// --- §4.1.3 Error message -------------------------------------------------------

// localizeErrorMessage matches quoted error messages against the app's
// message strings, and error-type noun phrases against API descriptions.
func (s *Solver) localizeErrorMessage(e emitter, in localizeInput) []Mapping {
	ra, info := in.ra, in.info
	// Precise messages: quoted spans matched by normalized containment. The
	// app messages are normalized once at extraction time (the seed
	// retokenized every message per quoted span).
	for _, quoted := range ra.Quoted {
		nq := normalizeMessage(quoted)
		if nq == "" {
			continue
		}
		for mi := range info.Messages {
			msg := &info.Messages[mi]
			nm := info.normMessages[mi]
			if nm == "" || !(strings.Contains(nm, nq) || strings.Contains(nq, nm)) {
				continue
			}
			for _, cls := range msg.Classes {
				e.match(quoted, cls, "", "app message", 1, "app message ", msg.Text)
			}
		}
	}

	// Error types: "connection error" → APIs whose descriptions mention the
	// modifier → classes calling them. Descriptions are tokenized once at
	// extraction time (the seed re-ran textproc.Words per (modifier, API)
	// pair).
	for ni := range ra.NounPhrases {
		for _, mod := range phrase.ErrorModifier(ra.NounPhrases[ni]) {
			for ai := range info.APIs {
				use := &info.APIs[ai]
				sim, ok := descriptionMention(info.descWords[ai], mod, s.vec)
				if !ok {
					continue
				}
				for _, cls := range use.Classes {
					e.match(ra.npKey(ni), cls, "", "API description", sim,
						"API description ", use.API.Class, ".", use.API.Method, "()")
				}
			}
		}
	}
	return e.out
}

func normalizeMessage(s string) string {
	return strings.Join(textproc.Words(s), " ")
}

// descriptionMention reports whether a tokenized API description contains
// the word or a synonym of it, and the similarity that decided it (1 for
// an exact word hit).
func descriptionMention(descWords []string, word string, vec *wordvec.Model) (float64, bool) {
	for _, w := range descWords {
		if w == word {
			return 1, true
		}
		if !textproc.IsStopword(w) {
			if sim := vec.WordSimilarity(w, word); sim >= vec.Threshold() {
				return sim, true
			}
		}
	}
	return 0, false
}

// --- §4.1.4 Opening app ---------------------------------------------------------

// openAppPhrases detect errors at launch.
var openAppObjects = map[string]struct{}{"app": {}, "application": {}, "it": {}}

// lifecycleMethods are recommended for launch errors (§4.1.4).
var lifecycleMethods = []string{"onCreate", "onStart", "onResume"}

// localizeOpeningApp recommends the starting activity's lifecycle methods
// for launch-time errors.
func (s *Solver) localizeOpeningApp(e emitter, in localizeInput) []Mapping {
	ra, info := in.ra, in.info
	if info.StartingActivity == "" {
		return nil
	}
	match := false
	trigger := ""
	for vi := range ra.VerbPhrases {
		vp := &ra.VerbPhrases[vi]
		verb := vp.Verb
		if (verb == "open" || verb == "launch" || verb == "start") && len(vp.Object) > 0 {
			if _, ok := openAppObjects[vp.ObjectHead()]; ok {
				match, trigger = true, ra.vpKey(vi)
				break
			}
		}
	}
	if !match {
		// "crashes right after launch", "crashed every time i opened it".
		cues := []string{
			"open it", "opened it", "opening it", "open the app",
			"opened the app", "launch", "startup", "start up",
			"won't start", "wont start", "doesn't start", "does not start",
			"won't open", "wont open", "doesn't open", "cannot even open",
		}
		for _, sent := range ra.Sentences {
			lower := " " + strings.ToLower(sent) + " "
			for _, cue := range cues {
				if strings.Contains(lower, cue) {
					match, trigger = true, strings.TrimSpace(sent)
					break
				}
			}
			if match {
				break
			}
		}
	}
	if !match {
		return nil
	}
	for _, m := range lifecycleMethods {
		e.match(trigger, info.StartingActivity, m, "starting activity", 1, "starting activity lifecycle")
	}
	return e.out
}

// --- §4.1.5 Account registration --------------------------------------------------

// localizeRegistration recommends the registration/login activities for
// account errors.
func (s *Solver) localizeRegistration(e emitter, in localizeInput) []Mapping {
	if !mentionsRegistration(in.ra) {
		return nil
	}
	for _, a := range gui.FindRegistrationActivities(in.info.GUIs) {
		e.match("account registration", a, "", "registration activity", 1, "registration activity")
	}
	return e.out
}

func mentionsRegistration(ra *ReviewAnalysis) bool {
	for _, vp := range ra.VerbPhrases {
		switch vp.Verb {
		case "register", "login", "signin":
			return true
		case "sign", "log":
			return true
		}
		if vp.ObjectHead() == "account" && (vp.Verb == "create" || vp.Verb == "add") {
			return true
		}
	}
	for _, np := range ra.NounPhrases {
		if np.Head == "registration" || np.Head == "login" || np.Head == "signin" {
			return true
		}
	}
	for _, sent := range ra.Sentences {
		lower := strings.ToLower(sent)
		if strings.Contains(lower, "login") || strings.Contains(lower, "log in") ||
			strings.Contains(lower, "sign in") || strings.Contains(lower, "register") {
			return true
		}
	}
	return false
}

// --- §4.1.6 App updating ---------------------------------------------------------

// updateCues detect update-related error reviews.
var updateCues = []string{
	"recent update", "latest update", "new update", "last update",
	"after updating", "after the update", "since the update", "latest upgrade",
	"update app", "updated the app", "started crashing after",
}

// localizeUpdate maps update-related reviews: when other localizers already
// produced mappings those stand (the paper checks the other phrases first);
// otherwise it recommends the classes changed between the two latest
// versions.
func (s *Solver) localizeUpdate(e emitter, in localizeInput) []Mapping {
	previous, current := in.previous, in.current
	if previous == nil || current == nil {
		return nil
	}
	mentioned := false
	for _, sent := range in.ra.Sentences {
		lower := strings.ToLower(sent)
		for _, cue := range updateCues {
			if strings.Contains(lower, cue) {
				mentioned = true
				break
			}
		}
	}
	if !mentioned || len(in.earlier) > 0 {
		return nil
	}
	for _, cls := range apk.DiffReleases(previous, current) {
		e.match("app update", cls, "", "version diff", 1, "changed between ", previous.Version, " and ", current.Version)
	}
	return e.out
}

// --- §4.2.1 API / URI / intent (Algorithm 1) --------------------------------------

// collectionVerbs are the information access verbs of §4.2.1 whose objects
// are matched against permission-protected data.
var collectionVerbs = map[string]struct{}{
	"gather": {}, "collect": {}, "read": {}, "access": {}, "use": {},
	"get": {}, "fetch": {}, "find": {}, "query": {},
}

// localizeAPIURIIntent implements Algorithm 1: verb phrases against API
// phrases, verb-phrase objects against URI nouns and intent nouns. The
// whole-catalog API scan — the dominant Table 15 cost — walks the flattened
// catalog matrix with the dot-only kernel and anchor prescreen. The
// permission-noun and URI/intent-noun vectors are cached at
// construction/extraction time.
func (s *Solver) localizeAPIURIIntent(e emitter, in localizeInput) []Mapping {
	ra, info := in.ra, in.info
	table := s.catalogVecs()
	threshold := s.vec.Threshold()
	for vi := range ra.VerbPhrases {
		vp := ra.VerbPhrases[vi]
		prep := s.fe.prep(s, ra.vpKey(vi), vp)
		phraseText := prep.text
		_, isCollect := collectionVerbs[vp.Verb]
		objVec := prep.objVec

		// APIs (Algorithm 1 lines 3–10): the comparison runs over the whole
		// documented catalog and a match is reported only when the app
		// actually invokes the API.
		var sc wordvec.ScanCount
		for ei := range table.entries {
			entry := &table.entries[ei]
			source := "API"
			matched, esc := table.matrix.AnyAtLeastCount(&prep.q, threshold,
				int(table.rowStart[ei]), int(table.rowStart[ei+1]))
			sc.Merge(esc)
			sim := 0.0
			if matched {
				sim = threshold // AnyAtLeastCount stops at the hit; record the floor
			}
			// Permission-protected personal data: collection verb + object
			// similar to the permission nouns (cached per entry — the seed
			// re-derived them per phrase×entry).
			if !matched && isCollect && prep.hasObj && len(entry.permNouns) > 0 {
				if psim := wordvec.Dot(objVec, entry.permVec); psim >= threshold {
					matched, sim, source = true, psim, "permission"
				}
			}
			if !matched {
				continue
			}
			for _, cls := range info.APIClasses(entry.api.Class, entry.api.Method) {
				e.match(phraseText, cls, "", source, sim, "API ", entry.api.Class, ".", entry.api.Method, "()")
			}
		}
		e.scanned("catalog", phraseText, table.matrix.Rows(), sc)

		if !prep.hasObj {
			continue
		}

		// URIs (lines 11–18): object vs permission nouns of the URI.
		for ui := range info.URIs {
			use := &info.URIs[ui]
			if len(use.Nouns) == 0 {
				continue
			}
			sim := wordvec.Dot(objVec, info.uriNounVecs[ui])
			if sim < threshold {
				continue
			}
			for _, cls := range use.Classes {
				e.match(phraseText, cls, "", "URI", sim, "URI ", use.URI.URI)
			}
		}

		// Intents (lines 19–26): object vs common-intent nouns.
		for ii := range info.Intents {
			use := &info.Intents[ii]
			matched, sim := false, 0.0
			for _, nv := range info.intentNounVecs[ii] {
				if d := wordvec.Dot(objVec, nv); d >= threshold {
					matched, sim = true, d
					break
				}
			}
			if !matched {
				continue
			}
			for _, cls := range use.Classes {
				e.match(phraseText, cls, "", "intent", sim, "intent ", use.Action)
			}
		}
	}
	return e.out
}

// --- §4.2.2 General task (Algorithm 2) ---------------------------------------------

// localizeGeneralTask looks the verb phrase up in the Q&A index, takes the
// top-k framework APIs, and recommends the classes calling them.
func (s *Solver) localizeGeneralTask(e emitter, in localizeInput) []Mapping {
	ra := in.ra
	query := func(phraseText string, words []string) {
		for _, ref := range s.qaIndex.TopAPIs(words, 5) {
			for _, cls := range in.info.Graph.ClassesCalling(ref.Class, ref.Method) {
				e.match(phraseText, cls, "", "Q&A task API", 1, "Q&A task API ", ref.Class, ".", ref.Method)
			}
		}
	}
	for vi := range ra.VerbPhrases {
		prep := s.fe.prep(s, ra.vpKey(vi), ra.VerbPhrases[vi])
		query(prep.text, prep.words)
	}
	// Error-type noun phrases are also searched as-is ("404 error" is a
	// Stack Overflow query in §2.3 Example 6).
	for ni := range ra.NounPhrases {
		if mods := phrase.ErrorModifier(ra.NounPhrases[ni]); len(mods) > 0 {
			query(ra.npKey(ni), append(append([]string(nil), mods...), "error"))
		}
	}
	return e.out
}

// --- §4.2.3 Exception ---------------------------------------------------------------

// localizeException maps "<type> exception" noun phrases to the classes
// calling framework APIs that throw matching exceptions, and to developer
// methods that catch them.
func (s *Solver) localizeException(e emitter, in localizeInput) []Mapping {
	ra, info := in.ra, in.info
	for ni := range ra.NounPhrases {
		words := phrase.ExceptionType(ra.NounPhrases[ni])
		if len(words) == 0 {
			continue
		}
		npText := ra.npKey(ni)
		// Framework APIs documented to throw a matching exception type.
		for _, use := range info.APIs {
			for _, ex := range use.API.Exceptions {
				if !s.exceptionMatches(ex, words) {
					continue
				}
				for _, cls := range use.Classes {
					e.match(npText, cls, "", "API exception", 1,
						"API ", use.API.Class, ".", use.API.Method, "() throws ", ex)
				}
			}
		}
		// Developer methods that throw or catch a matching type (§4.2.3:
		// "we check the statements contained in each method to determine
		// the types of exceptions it can catch"), plus the classes calling
		// those methods ("we output the classes that call these framework
		// APIs or the methods defined by developers").
		for _, site := range info.Exceptions {
			if !s.exceptionMatches(site.Exception, words) {
				continue
			}
			e.match(npText, site.Site.Class(), site.Site.Method.Name,
				"exception handler", 1, "handles ", site.Exception)
			for _, caller := range info.Graph.Callers(site.Site.Method.Class, site.Site.Method.Name) {
				e.match(npText, caller.Class(), caller.Method.Name, "exception handler caller", 1,
					"calls ", site.Site.Method.Name, " which handles ", site.Exception)
			}
		}
	}
	return e.out
}

// exceptionMatches reports whether an exception type name ("SocketException")
// matches the review's type words (["socket"]): each is one of the name's
// identifier words other than "exception".
func (s *Solver) exceptionMatches(exception string, words []string) bool {
	typeWords, ok := s.fe.exceptionWords.Get(exception)
	if !ok {
		typeWords = slices.DeleteFunc(textproc.SplitIdentifier(exception),
			func(w string) bool { return w == "exception" })
		typeWords, _ = s.fe.exceptionWords.Put(exception, typeWords)
	}
	for _, w := range words {
		if !slices.Contains(typeWords, w) {
			return false
		}
	}
	return true
}
