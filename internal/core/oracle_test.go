package core

import (
	"strings"
	"time"

	"reviewsolver/internal/apk"
	"reviewsolver/internal/ctxinfo"
	"reviewsolver/internal/wordvec"
)

// cosineOracle is the brute-force reference for the kernel matcher. Each
// vector-driven localizer (§4.1.1 method phrases, §4.1.2 widget ids, §4.2.1
// Algorithm 1) is re-implemented here as a plain loop that re-embeds every
// candidate from its words — method phrase, widget-id word list, catalog
// API phrase, permission, URI and intent nouns — and compares it with
// wordvec.Cosine: no matrix, no prescreen, no precomputed vector. The other
// localizers, the dedup and the ranking run through the solver itself, so a
// divergence always points at a scan path.
type cosineOracle struct{ s *Solver }

// LocalizeReview mirrors Solver.LocalizeReview without telemetry.
func (o cosineOracle) LocalizeReview(app *apk.App, text string, publishedAt time.Time) *Result {
	s := o.s
	res := &Result{IsError: s.IsErrorReview(text)}
	if !res.IsError {
		return res
	}
	current, previous, ok := app.ReleaseBefore(publishedAt)
	if !ok {
		if len(app.Releases) == 0 {
			return res
		}
		current, previous = app.Releases[0], nil
	}
	res.Release = current
	info := s.StaticFor(current)
	res.Analysis = s.AnalyzeReview(text)

	var out []Mapping
	out = append(out, o.appSpecific(res.Analysis, info)...)
	out = append(out, o.gui(res.Analysis, info)...)
	out = append(out, s.localizeErrorMessage(res.Analysis, info, nil)...)
	out = append(out, s.localizeOpeningApp(res.Analysis, info, nil)...)
	out = append(out, s.localizeRegistration(res.Analysis, info, nil)...)
	out = append(out, o.apiURIIntent(res.Analysis, info)...)
	out = append(out, s.localizeGeneralTask(res.Analysis, info, nil)...)
	out = append(out, s.localizeException(res.Analysis, info, nil)...)
	out = append(out, s.localizeUpdate(res.Analysis, out, previous, current, nil)...)
	res.Mappings = dedupMappings(out)

	var changed map[string]struct{}
	if s.changeAware && previous != nil {
		changed = s.changedClasses(previous, current)
	}
	res.Ranked = rankClasses(res.Mappings, info.Graph, TopN, changed)
	return res
}

// LocalizeByContext mirrors Solver.LocalizeByContext.
func (o cosineOracle) LocalizeByContext(ctx ctxinfo.Type, ra *ReviewAnalysis, info *StaticInfo, previous, current *apk.Release) []Mapping {
	switch ctx {
	case ctxinfo.AppSpecificTask:
		return o.appSpecific(ra, info)
	case ctxinfo.GUI:
		return o.gui(ra, info)
	case ctxinfo.APIURIIntent:
		return o.apiURIIntent(ra, info)
	}
	return o.s.LocalizeByContext(ctx, ra, info, previous, current)
}

// similar is the oracle's only comparison: the full cosine of two phrases
// embedded from their words.
func (o cosineOracle) similar(a, b []string) bool {
	return wordvec.Cosine(o.s.vec.PhraseVector(a), o.s.vec.PhraseVector(b)) >= o.s.vec.Threshold()
}

func (o cosineOracle) appSpecific(ra *ReviewAnalysis, info *StaticInfo) []Mapping {
	var out []Mapping
	for vi := range ra.VerbPhrases {
		words := ra.VerbPhrases[vi].Words()
		for _, mp := range info.MethodPhrases {
			if !o.similar(words, mp.Words) {
				continue
			}
			evidence := "method name " + mp.Method.Name
			if mp.FromSummary {
				evidence = "method summary [" + strings.Join(mp.Words, " ") + "]"
			}
			out = append(out, Mapping{Phrase: ra.vpKey(vi), Class: mp.Method.Class, Method: mp.Method.Name,
				Context: ctxinfo.AppSpecificTask, Evidence: evidence})
		}
	}
	return out
}

func (o cosineOracle) gui(ra *ReviewAnalysis, info *StaticInfo) []Mapping {
	out := o.s.guiNounPhrases(ra, info, nil)
	for vi := range ra.VerbPhrases {
		content := contentOnly(ra.VerbPhrases[vi].Words())
		for _, g := range info.GUIs {
			for wi, idWords := range g.InvisibleWords {
				if len(idWords) == 0 || !o.similar(content, idWords) {
					continue
				}
				out = append(out, Mapping{Phrase: ra.vpKey(vi), Class: g.Activity,
					Context: ctxinfo.GUI, Evidence: "widget id " + g.WidgetIDs[wi]})
			}
		}
	}
	return append(out, o.s.guiPatterns(ra, info, nil)...)
}

func (o cosineOracle) apiURIIntent(ra *ReviewAnalysis, info *StaticInfo) []Mapping {
	s := o.s
	var out []Mapping
	add := func(phraseText string, classes []string, evidence string) {
		for _, cls := range classes {
			out = append(out, Mapping{Phrase: phraseText, Class: cls, Context: ctxinfo.APIURIIntent, Evidence: evidence})
		}
	}
	for vi := range ra.VerbPhrases {
		vp := ra.VerbPhrases[vi]
		phraseText := ra.vpKey(vi)
		_, isCollect := collectionVerbs[vp.Verb]
		hasObject := len(vp.Object) > 0
		for _, api := range s.catalog.APIs() {
			matched := false
			for _, p := range apiPhrases(api) {
				if o.similar(vp.Words(), p) {
					matched = true
					break
				}
			}
			if !matched && isCollect && hasObject && api.Permission != "" {
				if nouns := permissionNouns(s, api.Permission); len(nouns) > 0 {
					matched = o.similar(vp.Object, nouns)
				}
			}
			if matched {
				add(phraseText, info.APIClasses(api.Class, api.Method), "API "+api.Signature())
			}
		}
		if !hasObject {
			continue
		}
		for _, use := range info.URIs {
			if len(use.Nouns) > 0 && o.similar(vp.Object, use.Nouns) {
				add(phraseText, use.Classes, "URI "+use.URI.URI)
			}
		}
		for _, use := range info.Intents {
			for _, noun := range use.Nouns {
				if o.similar(vp.Object, []string{noun}) {
					add(phraseText, use.Classes, "intent "+use.Action)
					break
				}
			}
		}
	}
	return out
}
