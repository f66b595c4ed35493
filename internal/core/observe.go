package core

import (
	"reviewsolver/internal/obs"
	"reviewsolver/internal/wordvec"
)

// This file holds the pipeline's span taxonomy and the thin glue between
// the localizers and the telemetry layer. Everything is nil-safe: with no
// recorder installed (the default) and no explain trace requested, every
// hook below is a nil check and nothing else, so the kernel hot path keeps
// its instrumented-off numbers.

// Span taxonomy: the root review span, its direct children, and — under
// "localize" — one child per §4.1/§4.2 localizer.
const (
	stageReview   = "review"
	stageClassify = "classify"
	stageStatic   = "static"
	stageAnalyze  = "analyze"
	stageLocalize = "localize"
	stageRank     = "rank"

	stageAppSpecific  = "app_specific"
	stageGUI          = "gui"
	stageErrorMessage = "error_message"
	stageOpeningApp   = "opening_app"
	stageRegistration = "registration"
	stageAPIURIIntent = "api_uri_intent"
	stageGeneralTask  = "general_task"
	stageException    = "exception"
	stageUpdate       = "update"
)

// Registry metric names.
const (
	metricReviews          = "reviews_total"
	metricErrorReviews     = "error_reviews_total"
	metricLocalizedReviews = "localized_reviews_total"
	metricMappings         = "mappings_total"
	metricMatchSimilarity  = "match_similarity"

	metricPrescreenPruned    = "prescreen_pruned_total"
	metricPrescreenEvaluated = "prescreen_evaluated_total"
	metricPrescreenMatched   = "prescreen_matched_total"

	metricPoolJobs       = "pool_jobs_total"
	metricPoolQueueDepth = "pool_queue_depth"
	metricPoolBusy       = "pool_workers_busy"

	metricAnalysisCacheHits   = "analysis_cache_hits_total"
	metricAnalysisCacheMisses = "analysis_cache_misses_total"
	metricPhraseCacheHits     = "phrase_cache_hits_total"
	metricPhraseCacheMisses   = "phrase_cache_misses_total"
	metricInternerSize        = "interner_size"
	metricAnalysisCacheSize   = "analysis_cache_size"
	metricSpellMemoSize       = "spell_memo_size"
)

// ReviewLatencyMetric is the histogram holding per-review end-to-end
// latency in nanoseconds (the "review" stage span), exported for summary
// percentile reporting (cmd/reviewsolver) and the obs gate.
const ReviewLatencyMetric = "stage_" + stageReview + "_ns"

// notePerApp bumps the per-app labeled child of a pipeline counter when
// this solver carries an app label (WithAppLabel). The vec child resolves
// through the registry's bounded label table, so a fleet of solvers sharing
// one registry cannot grow it without limit.
func (s *Solver) notePerApp(metric string, n int64) {
	if s.appLabel == "" || s.rec == nil {
		return
	}
	s.rec.Registry().CounterVec(metric, "app").With(s.appLabel).Add(n)
}

// simHist vends the match-similarity histogram (nil without a recorder).
func (s *Solver) simHist() *obs.Histogram {
	return s.rec.Histogram(metricMatchSimilarity, obs.SimilarityBuckets)
}

// noteScan folds one merged phrase×matrix scan count into the registry
// counters and the explain trace. The counts arrive already aggregated
// across worker chunks (each chunk tallies locally and the merge happens
// after the chunks join), so no scan bookkeeping is shared between
// goroutines — race-safe by construction under Pool and WithParallelism.
func (s *Solver) noteScan(tr *obs.ReviewTrace, stage, matrix, phrase string, rows int, sc wordvec.ScanCount) {
	if s.rec != nil {
		s.rec.Counter(metricPrescreenPruned).Add(int64(sc.Pruned))
		s.rec.Counter(metricPrescreenEvaluated).Add(int64(sc.Evaluated))
		s.rec.Counter(metricPrescreenMatched).Add(int64(sc.Matched))
	}
	tr.AddScan(obs.ScanTrace{
		Stage: stage, Matrix: matrix, Phrase: phrase,
		Rows: rows, Pruned: sc.Pruned, Evaluated: sc.Evaluated, Matched: sc.Matched,
	})
}
