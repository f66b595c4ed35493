package core

import (
	"reviewsolver/internal/textproc"
	"reviewsolver/internal/wordvec"
)

// This file exposes deterministic kernel instrumentation: how many
// candidates the anchor prescreen skipped, evaluated, and matched for a
// query phrase. The counts come from the same counting scans the live
// pipeline runs (wordvec.ScanThresholdCount — there is no separate stats
// pass), so cmd/benchgate snapshots them next to the table metrics and a
// kernel or prescreen regression shows up as a count drift long before it
// shows up as wall-clock noise. During localization the identical counts
// are tallied per phrase scan and fed into the obs registry
// (prescreen_*_total) and the per-review explain trace.

// KernelScanStats scans a release's method-phrase matrix (§4.1.1) with the
// given query phrase and reports (pruned, evaluated, matched) row counts.
func (s *Solver) KernelScanStats(info *StaticInfo, phrase string) (pruned, evaluated, matched int) {
	q := wordvec.PrepareQuery(s.vec.PhraseVector(textproc.Words(phrase)))
	sc := info.methodMatrix.ScanThresholdCount(&q, s.vec.Threshold(), 0, info.methodMatrix.Rows(),
		func(int, float64) {})
	return sc.Pruned, sc.Evaluated, sc.Matched
}

// CatalogScanStats scans the full framework-catalog matrix (Algorithm 1)
// with the given query phrase and reports (pruned, evaluated, matched) row
// counts.
func (s *Solver) CatalogScanStats(phrase string) (pruned, evaluated, matched int) {
	q := wordvec.PrepareQuery(s.vec.PhraseVector(textproc.Words(phrase)))
	t := s.catalogVecs()
	sc := t.matrix.ScanThresholdCount(&q, s.vec.Threshold(), 0, t.matrix.Rows(),
		func(int, float64) {})
	return sc.Pruned, sc.Evaluated, sc.Matched
}

// CatalogRows returns the number of flattened describing-phrase rows in the
// catalog scan matrix.
func (s *Solver) CatalogRows() int { return s.catalogVecs().matrix.Rows() }

// MethodRows returns the number of method-phrase rows in a release's scan
// matrix.
func (info *StaticInfo) MethodRows() int { return info.methodMatrix.Rows() }
