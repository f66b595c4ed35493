package core

import (
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
	// the mapping.
	Context ctxinfo.Type
	// Evidence describes what the phrase matched (method name, API
	// description, widget id, …).
	Evidence string
}

// Localize runs every applicable localizer (§4.1 app-specific, §4.2
// general) and returns the combined mappings.
func (s *Solver) Localize(ra *ReviewAnalysis, info *StaticInfo, previous, current *apk.Release) []Mapping {
	return s.localize(ra, info, previous, current, nil, nil)
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
	var out []Mapping
	run := func(stage string, fn func() []Mapping) {
		c := sp.Child(stage)
		ms := fn()
		c.End()
		tr.AddStage(stage, stageLocalize, len(ms))
		out = append(out, ms...)
	}
	run(stageAppSpecific, func() []Mapping { return s.localizeAppSpecific(ra, info, tr) })
	run(stageGUI, func() []Mapping { return s.localizeGUI(ra, info, tr) })
	run(stageErrorMessage, func() []Mapping { return s.localizeErrorMessage(ra, info, tr) })
	run(stageOpeningApp, func() []Mapping { return s.localizeOpeningApp(ra, info, tr) })
	run(stageRegistration, func() []Mapping { return s.localizeRegistration(ra, info, tr) })
	run(stageAPIURIIntent, func() []Mapping { return s.localizeAPIURIIntent(ra, info, tr) })
	run(stageGeneralTask, func() []Mapping { return s.localizeGeneralTask(ra, info, tr) })
	run(stageException, func() []Mapping { return s.localizeException(ra, info, tr) })
	// §4.1.6: update-related errors fall back to the version diff only when
	// nothing else localized the review.
	existing := out
	run(stageUpdate, func() []Mapping { return s.localizeUpdate(ra, existing, previous, current, tr) })
	sp.End()
	return dedupMappings(out)
}

// LocalizeByContext runs a single context localizer, for per-context
// effectiveness (Table 12) and timing (Table 15) measurements.
func (s *Solver) LocalizeByContext(ctx ctxinfo.Type, ra *ReviewAnalysis, info *StaticInfo, previous, current *apk.Release) []Mapping {
	switch ctx {
	case ctxinfo.AppSpecificTask:
		return s.localizeAppSpecific(ra, info, nil)
	case ctxinfo.GUI:
		return s.localizeGUI(ra, info, nil)
	case ctxinfo.ErrorMessage:
		return s.localizeErrorMessage(ra, info, nil)
	case ctxinfo.OpeningApp:
		return s.localizeOpeningApp(ra, info, nil)
	case ctxinfo.RegisteringAccount:
		return s.localizeRegistration(ra, info, nil)
	case ctxinfo.APIURIIntent:
		return s.localizeAPIURIIntent(ra, info, nil)
	case ctxinfo.GeneralTask:
		return s.localizeGeneralTask(ra, info, nil)
	case ctxinfo.Exception:
		return s.localizeException(ra, info, nil)
	case ctxinfo.UpdatingApp:
		return s.localizeUpdate(ra, nil, previous, current, nil)
	default:
		return nil
	}
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
// prescreen. The candidate loop is chunked across workers
// (WithParallelism); chunk results merge in candidate order, so output
// order matches the sequential pass exactly.
func (s *Solver) localizeAppSpecific(ra *ReviewAnalysis, info *StaticInfo, tr *obs.ReviewTrace) []Mapping {
	var out []Mapping
	threshold := s.vec.Threshold()
	simHist := s.simHist()
	for vi := range ra.VerbPhrases {
		prep := s.fe.prep(s, ra.vpKey(vi), ra.VerbPhrases[vi])
		phraseText := prep.text
		res := parallelChunks(len(info.MethodPhrases), s.parallelism,
			func(start, end int) scanChunk {
				var ck scanChunk
				ck.scan = info.methodMatrix.ScanThresholdCount(&prep.q, threshold, start, end, func(i int, sim float64) {
					mp := &info.MethodPhrases[i]
					source, evidence := "method name", "method name "+mp.Method.Name
					if mp.FromSummary {
						source = "method summary"
						evidence = "method summary [" + strings.Join(mp.Words, " ") + "]"
					}
					ck.maps = append(ck.maps, Mapping{
						Phrase:   phraseText,
						Class:    mp.Method.Class,
						Method:   mp.Method.Name,
						Context:  ctxinfo.AppSpecificTask,
						Evidence: evidence,
					})
					simHist.Observe(sim)
					if tr != nil {
						ck.matches = append(ck.matches, obs.MatchTrace{
							Phrase: phraseText, Class: mp.Method.Class, Method: mp.Method.Name,
							Stage: stageAppSpecific, Source: source, Evidence: evidence,
							Similarity: sim,
						})
					}
				})
				return ck
			})
		out = append(out, res.maps...)
		tr.AddMatches(res.matches)
		if s.rec != nil || tr != nil {
			s.noteScan(tr, stageAppSpecific, "method_phrases", phraseText,
				len(info.MethodPhrases), res.scan)
		}
	}
	return out
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
func (s *Solver) localizeGUI(ra *ReviewAnalysis, info *StaticInfo, tr *obs.ReviewTrace) []Mapping {
	out := s.guiNounPhrases(ra, info, tr)
	// Verb phrases against invisible widget-id phrases ("show password").
	for vi := range ra.VerbPhrases {
		prep := s.fe.prep(s, ra.vpKey(vi), ra.VerbPhrases[vi])
		out = append(out, s.matchInvisible(prep, info, tr)...)
	}
	return append(out, s.guiPatterns(ra, info, tr)...)
}

// visibleLabelMatch records one activity whose visible labels contain a
// searched word.
func (s *Solver) visibleLabelMatch(tr *obs.ReviewTrace, phraseText, activity, evidence string) Mapping {
	s.simHist().Observe(1)
	if tr != nil {
		tr.AddMatch(obs.MatchTrace{
			Phrase: phraseText, Class: activity,
			Stage: stageGUI, Source: "visible label", Evidence: evidence,
			Similarity: 1,
		})
	}
	return Mapping{Phrase: phraseText, Class: activity, Context: ctxinfo.GUI, Evidence: evidence}
}

// guiNounPhrases handles the noun-phrase cases of §4.1.2: explicit widget
// mentions and implicit issue mentions.
func (s *Solver) guiNounPhrases(ra *ReviewAnalysis, info *StaticInfo, tr *obs.ReviewTrace) []Mapping {
	var out []Mapping
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
					out = append(out, s.visibleLabelMatch(tr, ra.npKey(ni), activity, "visible label contains "+mod))
				}
				out = append(out, s.matchInvisibleWord(ra.npKey(ni), mod, info, tr)...)
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
					out = append(out, s.visibleLabelMatch(tr, ra.npKey(ni), activity, "visible label contains "+mod))
				}
			}
		}
	}
	return out
}

// guiPatterns looks the function words of vague-error patterns (Table 5)
// up in the visible labels.
func (s *Solver) guiPatterns(ra *ReviewAnalysis, info *StaticInfo, tr *obs.ReviewTrace) []Mapping {
	var out []Mapping
	for _, pm := range ra.Patterns {
		for _, fn := range pm.Function {
			if textproc.IsStopword(fn) {
				continue
			}
			for _, activity := range gui.FindByVisibleWord(info.GUIs, fn) {
				out = append(out, s.visibleLabelMatch(tr, strings.Join(pm.Function, " "), activity,
					pm.Pattern.String()+" function word "+fn))
			}
		}
	}
	return out
}

// matchInvisible compares a review phrase against the expanded widget-id
// phrases of each activity by scanning the flattened widget-id matrix (rows
// in nested GUI×widget order). The content-word vector's prescreen query
// comes precomputed on the cached phrase prep.
func (s *Solver) matchInvisible(prep *phrasePrep, info *StaticInfo, tr *obs.ReviewTrace) []Mapping {
	var out []Mapping
	phraseText := prep.text
	simHist := s.simHist()
	sc := info.invisibleMatrix.ScanThresholdCount(&prep.contentQ, s.vec.Threshold(), 0, info.invisibleMatrix.Rows(),
		func(row int, sim float64) {
			ref := info.invisibleRows[row]
			g := &info.GUIs[ref.GUI]
			evidence := "widget id " + g.WidgetIDs[ref.Widget]
			out = append(out, Mapping{
				Phrase:   phraseText,
				Class:    g.Activity,
				Context:  ctxinfo.GUI,
				Evidence: evidence,
			})
			simHist.Observe(sim)
			if tr != nil {
				tr.AddMatch(obs.MatchTrace{
					Phrase: phraseText, Class: g.Activity,
					Stage: stageGUI, Source: "widget id", Evidence: evidence,
					Similarity: sim,
				})
			}
		})
	if s.rec != nil || tr != nil {
		s.noteScan(tr, stageGUI, "widget_ids", phraseText, info.invisibleMatrix.Rows(), sc)
	}
	return out
}

// matchInvisibleWord searches one widget-purpose word ("reply") across the
// expanded widget-id words of each activity (§4.1.2 case 1: "we search the
// word 'reply' that modifies the 'button' in the information related to
// each GUI component").
func (s *Solver) matchInvisibleWord(phraseText, word string, info *StaticInfo, tr *obs.ReviewTrace) []Mapping {
	var out []Mapping
	simHist := s.simHist()
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
			if !matched {
				continue
			}
			evidence := "widget id " + g.WidgetIDs[wi]
			out = append(out, Mapping{
				Phrase:   phraseText,
				Class:    g.Activity,
				Context:  ctxinfo.GUI,
				Evidence: evidence,
			})
			simHist.Observe(sim)
			if tr != nil {
				tr.AddMatch(obs.MatchTrace{
					Phrase: phraseText, Class: g.Activity,
					Stage: stageGUI, Source: "widget id", Evidence: evidence,
					Similarity: sim,
				})
			}
		}
	}
	return out
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
func (s *Solver) localizeErrorMessage(ra *ReviewAnalysis, info *StaticInfo, tr *obs.ReviewTrace) []Mapping {
	var out []Mapping
	simHist := s.simHist()

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
				evidence := "app message " + msg.Text
				out = append(out, Mapping{
					Phrase:   quoted,
					Class:    cls,
					Context:  ctxinfo.ErrorMessage,
					Evidence: evidence,
				})
				simHist.Observe(1)
				if tr != nil {
					tr.AddMatch(obs.MatchTrace{
						Phrase: quoted, Class: cls,
						Stage: stageErrorMessage, Source: "app message", Evidence: evidence,
						Similarity: 1,
					})
				}
			}
		}
	}

	// Error types: "connection error" → APIs whose descriptions mention the
	// modifier → classes calling them. Descriptions are tokenized once at
	// extraction time (the seed re-ran textproc.Words per (modifier, API)
	// pair).
	for ni := range ra.NounPhrases {
		mods := phrase.ErrorModifier(ra.NounPhrases[ni])
		if len(mods) == 0 {
			continue
		}
		for _, mod := range mods {
			for ai := range info.APIs {
				use := &info.APIs[ai]
				sim, ok := descriptionMention(info.descWords[ai], mod, s.vec)
				if !ok {
					continue
				}
				for _, cls := range use.Classes {
					evidence := "API description " + use.API.Signature()
					out = append(out, Mapping{
						Phrase:   ra.npKey(ni),
						Class:    cls,
						Context:  ctxinfo.ErrorMessage,
						Evidence: evidence,
					})
					simHist.Observe(sim)
					if tr != nil {
						tr.AddMatch(obs.MatchTrace{
							Phrase: ra.npKey(ni), Class: cls,
							Stage: stageErrorMessage, Source: "API description", Evidence: evidence,
							Similarity: sim,
						})
					}
				}
			}
		}
	}
	return out
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
func (s *Solver) localizeOpeningApp(ra *ReviewAnalysis, info *StaticInfo, tr *obs.ReviewTrace) []Mapping {
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
	simHist := s.simHist()
	out := make([]Mapping, 0, len(lifecycleMethods))
	for _, m := range lifecycleMethods {
		out = append(out, Mapping{
			Phrase:   trigger,
			Class:    info.StartingActivity,
			Method:   m,
			Context:  ctxinfo.OpeningApp,
			Evidence: "starting activity lifecycle",
		})
		simHist.Observe(1)
		if tr != nil {
			tr.AddMatch(obs.MatchTrace{
				Phrase: trigger, Class: info.StartingActivity, Method: m,
				Stage: stageOpeningApp, Source: "starting activity",
				Evidence: "starting activity lifecycle", Similarity: 1,
			})
		}
	}
	return out
}

// --- §4.1.5 Account registration --------------------------------------------------

// localizeRegistration recommends the registration/login activities for
// account errors.
func (s *Solver) localizeRegistration(ra *ReviewAnalysis, info *StaticInfo, tr *obs.ReviewTrace) []Mapping {
	if !mentionsRegistration(ra) {
		return nil
	}
	activities := gui.FindRegistrationActivities(info.GUIs)
	simHist := s.simHist()
	out := make([]Mapping, 0, len(activities))
	for _, a := range activities {
		out = append(out, Mapping{
			Phrase:   "account registration",
			Class:    a,
			Context:  ctxinfo.RegisteringAccount,
			Evidence: "registration activity",
		})
		simHist.Observe(1)
		if tr != nil {
			tr.AddMatch(obs.MatchTrace{
				Phrase: "account registration", Class: a,
				Stage: stageRegistration, Source: "registration activity",
				Evidence: "registration activity", Similarity: 1,
			})
		}
	}
	return out
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
func (s *Solver) localizeUpdate(ra *ReviewAnalysis, existing []Mapping, previous, current *apk.Release, tr *obs.ReviewTrace) []Mapping {
	if previous == nil || current == nil {
		return nil
	}
	mentioned := false
	for _, sent := range ra.Sentences {
		lower := strings.ToLower(sent)
		for _, cue := range updateCues {
			if strings.Contains(lower, cue) {
				mentioned = true
				break
			}
		}
	}
	if !mentioned || len(existing) > 0 {
		return nil
	}
	simHist := s.simHist()
	var out []Mapping
	for _, cls := range apk.DiffClasses(previous, current) {
		evidence := "changed between " + previous.Version + " and " + current.Version
		out = append(out, Mapping{
			Phrase:   "app update",
			Class:    cls,
			Context:  ctxinfo.UpdatingApp,
			Evidence: evidence,
		})
		simHist.Observe(1)
		if tr != nil {
			tr.AddMatch(obs.MatchTrace{
				Phrase: "app update", Class: cls,
				Stage: stageUpdate, Source: "version diff", Evidence: evidence,
				Similarity: 1,
			})
		}
	}
	return out
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
// catalog matrix with the dot-only kernel and anchor prescreen, chunked
// across workers with a deterministic candidate-order merge. The
// permission-noun and URI/intent-noun vectors are cached at
// construction/extraction time.
func (s *Solver) localizeAPIURIIntent(ra *ReviewAnalysis, info *StaticInfo, tr *obs.ReviewTrace) []Mapping {
	var out []Mapping
	table := s.catalogVecs()
	threshold := s.vec.Threshold()
	simHist := s.simHist()
	for vi := range ra.VerbPhrases {
		vp := ra.VerbPhrases[vi]
		prep := s.fe.prep(s, ra.vpKey(vi), vp)
		phraseText := prep.text
		_, isCollect := collectionVerbs[vp.Verb]
		hasObject := prep.hasObj
		objVec := prep.objVec
		q := &prep.q

		// APIs (Algorithm 1 lines 3–10): the comparison runs over the whole
		// documented catalog and a match is reported only when the app
		// actually invokes the API.
		res := parallelChunks(len(table.entries), s.parallelism,
			func(start, end int) scanChunk {
				var ck scanChunk
				for ei := start; ei < end; ei++ {
					entry := &table.entries[ei]
					source := "API"
					matched, esc := table.matrix.AnyAtLeastCount(q, threshold,
						int(table.rowStart[ei]), int(table.rowStart[ei+1]))
					ck.scan.Merge(esc)
					sim := 0.0
					if matched {
						sim = threshold // AnyAtLeast stops at the hit; record the floor
					}
					// Permission-protected personal data: collection verb +
					// object similar to the permission nouns (cached per
					// entry — the seed re-derived them per phrase×entry).
					if !matched && isCollect && hasObject && len(entry.permNouns) > 0 {
						if psim := wordvec.Dot(objVec, entry.permVec); psim >= threshold {
							matched, sim, source = true, psim, "permission"
						}
					}
					if !matched {
						continue
					}
					for _, cls := range info.APIClasses(entry.api.Class, entry.api.Method) {
						evidence := "API " + entry.api.Signature()
						ck.maps = append(ck.maps, Mapping{
							Phrase:   phraseText,
							Class:    cls,
							Context:  ctxinfo.APIURIIntent,
							Evidence: evidence,
						})
						simHist.Observe(sim)
						if tr != nil {
							ck.matches = append(ck.matches, obs.MatchTrace{
								Phrase: phraseText, Class: cls,
								Stage: stageAPIURIIntent, Source: source, Evidence: evidence,
								Similarity: sim,
							})
						}
					}
				}
				return ck
			})
		out = append(out, res.maps...)
		tr.AddMatches(res.matches)
		if s.rec != nil || tr != nil {
			s.noteScan(tr, stageAPIURIIntent, "catalog", phraseText, table.matrix.Rows(), res.scan)
		}

		if !hasObject {
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
				evidence := "URI " + use.URI.URI
				out = append(out, Mapping{
					Phrase:   phraseText,
					Class:    cls,
					Context:  ctxinfo.APIURIIntent,
					Evidence: evidence,
				})
				simHist.Observe(sim)
				if tr != nil {
					tr.AddMatch(obs.MatchTrace{
						Phrase: phraseText, Class: cls,
						Stage: stageAPIURIIntent, Source: "URI", Evidence: evidence,
						Similarity: sim,
					})
				}
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
				evidence := "intent " + use.Action
				out = append(out, Mapping{
					Phrase:   phraseText,
					Class:    cls,
					Context:  ctxinfo.APIURIIntent,
					Evidence: evidence,
				})
				simHist.Observe(sim)
				if tr != nil {
					tr.AddMatch(obs.MatchTrace{
						Phrase: phraseText, Class: cls,
						Stage: stageAPIURIIntent, Source: "intent", Evidence: evidence,
						Similarity: sim,
					})
				}
			}
		}
	}
	return out
}

// --- §4.2.2 General task (Algorithm 2) ---------------------------------------------

// localizeGeneralTask looks the verb phrase up in the Q&A index, takes the
// top-k framework APIs, and recommends the classes calling them.
func (s *Solver) localizeGeneralTask(ra *ReviewAnalysis, info *StaticInfo, tr *obs.ReviewTrace) []Mapping {
	var out []Mapping
	simHist := s.simHist()
	query := func(phraseText string, words []string) {
		for _, ref := range s.qaIndex.TopAPIs(words, 5) {
			for _, cls := range info.Graph.ClassesCalling(ref.Class, ref.Method) {
				evidence := "Q&A task API " + ref.Key()
				out = append(out, Mapping{
					Phrase:   phraseText,
					Class:    cls,
					Context:  ctxinfo.GeneralTask,
					Evidence: evidence,
				})
				simHist.Observe(1)
				if tr != nil {
					tr.AddMatch(obs.MatchTrace{
						Phrase: phraseText, Class: cls,
						Stage: stageGeneralTask, Source: "Q&A task API", Evidence: evidence,
						Similarity: 1,
					})
				}
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
	return out
}

// --- §4.2.3 Exception ---------------------------------------------------------------

// localizeException maps "<type> exception" noun phrases to the classes
// calling framework APIs that throw matching exceptions, and to developer
// methods that catch them.
func (s *Solver) localizeException(ra *ReviewAnalysis, info *StaticInfo, tr *obs.ReviewTrace) []Mapping {
	var out []Mapping
	simHist := s.simHist()
	add := func(phraseText, cls, method, source, evidence string) {
		out = append(out, Mapping{
			Phrase:   phraseText,
			Class:    cls,
			Method:   method,
			Context:  ctxinfo.Exception,
			Evidence: evidence,
		})
		simHist.Observe(1)
		if tr != nil {
			tr.AddMatch(obs.MatchTrace{
				Phrase: phraseText, Class: cls, Method: method,
				Stage: stageException, Source: source, Evidence: evidence,
				Similarity: 1,
			})
		}
	}
	for ni := range ra.NounPhrases {
		words := phrase.ExceptionType(ra.NounPhrases[ni])
		if len(words) == 0 {
			continue
		}
		npText := ra.npKey(ni)
		// Framework APIs documented to throw a matching exception type.
		for _, use := range info.APIs {
			for _, ex := range use.API.Exceptions {
				if !exceptionMatches(ex, words) {
					continue
				}
				for _, cls := range use.Classes {
					add(npText, cls, "", "API exception",
						"API "+use.API.Signature()+" throws "+ex)
				}
			}
		}
		// Developer methods that throw or catch a matching type (§4.2.3:
		// "we check the statements contained in each method to determine
		// the types of exceptions it can catch"), plus the classes calling
		// those methods ("we output the classes that call these framework
		// APIs or the methods defined by developers").
		for _, site := range info.Exceptions {
			if !exceptionMatches(site.Exception, words) {
				continue
			}
			add(npText, site.Site.Class(), site.Site.Method.Name,
				"exception handler", "handles "+site.Exception)
			for _, caller := range info.Graph.Callers(site.Site.Method.QualifiedName()) {
				cls, method := splitQualified(caller)
				add(npText, cls, method, "exception handler caller",
					"calls "+site.Site.Method.Name+" which handles "+site.Exception)
			}
		}
	}
	return out
}

// splitQualified splits "pkg.Class.method" into class and method parts.
func splitQualified(qualified string) (class, method string) {
	if i := strings.LastIndexByte(qualified, '.'); i >= 0 {
		return qualified[:i], qualified[i+1:]
	}
	return qualified, ""
}

// exceptionMatches reports whether an exception type name ("SocketException")
// matches the review's type words (["socket"]).
func exceptionMatches(exception string, words []string) bool {
	typeWords := textproc.SplitIdentifier(exception)
	set := make(map[string]struct{}, len(typeWords))
	for _, w := range typeWords {
		if w != "exception" {
			set[w] = struct{}{}
		}
	}
	for _, w := range words {
		if _, ok := set[w]; !ok {
			return false
		}
	}
	return true
}
