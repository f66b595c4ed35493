package main

import (
	"fmt"
	"math"
	"runtime/debug"
	"testing"
	"time"

	"reviewsolver/internal/core"
	"reviewsolver/internal/obs"
	"reviewsolver/internal/synth"
	"reviewsolver/internal/textclass"
)

// frontendHitRateFloor is the minimum acceptable sentence-cache hit rate
// over the seeded corpus. The generators reuse sentence templates heavily,
// so a warm corpus run sits far above this; falling below it means the
// cache key or the interner regressed.
const frontendHitRateFloor = 0.30

// frontendMetrics collects the BENCH_FRONTEND.json metrics: exact
// steady-state allocation counts for the three front-end entry points
// (analyze, classify, localize) plus the corpus-level cache effectiveness
// counters. Allocation counts are measured with the collector disabled on a
// warmed sequential solver, so they are exact functions of the code — any
// drift is a real allocation regression, not noise. The hit-rate floor is
// enforced here (an error, not a drift), because a cold cache would still
// "match" a stale baseline taken before the regression.
func frontendMetrics() (map[string]float64, error) {
	data := synth.GenerateSample(seed)
	app := data.App

	prevGC := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(prevGC)

	sn := core.NewSnapshot()
	sn.PrecomputeApp(app)
	solver := core.NewWithSnapshot(sn)
	review := data.Reviews[0].Text
	when := app.Latest().ReleasedAt.Add(24 * time.Hour)
	// Warm every cache and pool the measurement touches.
	solver.AnalyzeReview(review)
	solver.LocalizeReview(app, review, when)

	analyzeAllocs := math.Round(testing.AllocsPerRun(50, func() {
		solver.AnalyzeReview(review)
	}))
	localizeAllocs := math.Round(testing.AllocsPerRun(50, func() {
		solver.LocalizeReview(app, review, when)
	}))

	vec, clf := textclass.TrainOn(synth.TrainingCorpus(seed),
		func() textclass.Classifier { return textclass.NewNaiveBayes() })
	clf.Predict(vec.Transform(review))
	classifyAllocs := math.Round(testing.AllocsPerRun(50, func() {
		clf.Predict(vec.Transform(review))
	}))

	// Cache effectiveness over the full seeded corpus. The insert-wins
	// counting discipline makes hits/misses exact functions of the corpus at
	// any worker count; one worker keeps the run cheap.
	reg := obs.NewRegistry()
	pool := core.NewPool(1).WithObserver(obs.NewRecorder(reg, nil))
	inputs := make([]core.ReviewInput, len(data.Reviews))
	for i, rv := range data.Reviews {
		inputs[i] = core.ReviewInput{Text: rv.Text, PublishedAt: rv.PublishedAt}
	}
	pool.Localize(app, inputs)
	snap := reg.Snapshot()
	hits := snap["analysis_cache_hits_total"]
	misses := snap["analysis_cache_misses_total"]
	if hits+misses == 0 {
		return nil, fmt.Errorf("sentence cache was never consulted")
	}
	rate := hits / (hits + misses)
	if rate < frontendHitRateFloor {
		return nil, fmt.Errorf("analysis cache hit rate %.3f below floor %.2f",
			rate, frontendHitRateFloor)
	}

	return map[string]float64{
		"analyze_allocs_per_op":       analyzeAllocs,
		"classify_allocs_per_op":      classifyAllocs,
		"localize_allocs_per_op":      localizeAllocs,
		"analysis_cache_hits_total":   hits,
		"analysis_cache_misses_total": misses,
		"analysis_cache_hit_rate":     rate,
		"interner_size":               snap["interner_size"],
	}, nil
}
