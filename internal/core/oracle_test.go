package core

import (
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
// wordvec.Cosine: no matrix, no prescreen, no precomputed vector. The oracle
// walks the solver's localizer table with those three entries swapped in;
// the other localizers, the dedup and the ranking run through the solver
// itself, so a divergence always points at a scan path.
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
	in := localizeInput{ra: res.Analysis, info: info, previous: previous, current: current}
	for _, l := range o.localizers() {
		in.earlier = out
		out = append(out, l.run(s, nil, in)...)
	}
	res.Mappings = dedupMappings(out)

	var changed []string
	if s.changeAware && previous != nil {
		changed = apk.DiffReleases(previous, current)
	}
	res.Ranked = rankClasses(res.Mappings, info.Graph, TopN, changed)
	return res
}

// LocalizeByContext mirrors Solver.LocalizeByContext.
func (o cosineOracle) LocalizeByContext(ctx ctxinfo.Type, ra *ReviewAnalysis, info *StaticInfo, previous, current *apk.Release) []Mapping {
	for _, l := range o.localizers() {
		if l.ctx == ctx {
			return l.run(o.s, nil, localizeInput{ra: ra, info: info, previous: previous, current: current})
		}
	}
	return nil
}

// localizers is the solver's localizer table with the brute-force loops
// in place of the three vector-driven entries.
func (o cosineOracle) localizers() [len(localizers)]localizer {
	swap := map[ctxinfo.Type]func(*Solver, emitter, localizeInput) []Mapping{
		ctxinfo.AppSpecificTask: o.appSpecific,
		ctxinfo.GUI:             o.gui,
		ctxinfo.APIURIIntent:    o.apiURIIntent,
	}
	table := localizers
	for i := range table {
		if fn, ok := swap[table[i].ctx]; ok {
			table[i].fn = fn
		}
	}
	return table
}

// similar is the oracle's only comparison: the full cosine of two phrases
// embedded from their words.
func (o cosineOracle) similar(a, b []string) bool {
	return wordvec.Cosine(o.s.vec.PhraseVector(a), o.s.vec.PhraseVector(b)) >= o.s.vec.Threshold()
}

func (o cosineOracle) appSpecific(_ *Solver, _ emitter, in localizeInput) []Mapping {
	ra, info := in.ra, in.info
	var out []Mapping
	for vi := range ra.VerbPhrases {
		words := ra.VerbPhrases[vi].Words()
		for _, mp := range info.MethodPhrases {
			if !o.similar(words, mp.Words) {
				continue
			}
			out = append(out, Mapping{Phrase: ra.vpKey(vi), Class: mp.Method.Class, Method: mp.Method.Name,
				Context: ctxinfo.AppSpecificTask})
		}
	}
	return out
}

// gui runs the solver's exact-word label searches through e and the
// brute-force widget-id loop in between, in the solver's order.
func (o cosineOracle) gui(_ *Solver, e emitter, in localizeInput) []Mapping {
	ra, info := in.ra, in.info
	o.s.guiNounPhrases(&e, ra, info)
	for vi := range ra.VerbPhrases {
		content := contentOnly(ra.VerbPhrases[vi].Words())
		for _, g := range info.GUIs {
			for _, idWords := range g.InvisibleWords {
				if len(idWords) == 0 || !o.similar(content, idWords) {
					continue
				}
				e.out = append(e.out, Mapping{Phrase: ra.vpKey(vi), Class: g.Activity, Context: ctxinfo.GUI})
			}
		}
	}
	o.s.guiPatterns(&e, ra, info)
	return e.out
}

func (o cosineOracle) apiURIIntent(_ *Solver, _ emitter, in localizeInput) []Mapping {
	s, ra, info := o.s, in.ra, in.info
	var out []Mapping
	add := func(phraseText string, classes []string) {
		for _, cls := range classes {
			out = append(out, Mapping{Phrase: phraseText, Class: cls, Context: ctxinfo.APIURIIntent})
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
				if nouns := permissionNouns(s.catalog, api.Permission); len(nouns) > 0 {
					matched = o.similar(vp.Object, nouns)
				}
			}
			if matched {
				add(phraseText, info.APIClasses(api.Class, api.Method))
			}
		}
		if !hasObject {
			continue
		}
		for _, use := range info.URIs {
			if len(use.Nouns) > 0 && o.similar(vp.Object, use.Nouns) {
				add(phraseText, use.Classes)
			}
		}
		for _, use := range info.Intents {
			for _, noun := range use.Nouns {
				if o.similar(vp.Object, []string{noun}) {
					add(phraseText, use.Classes)
					break
				}
			}
		}
	}
	return out
}
