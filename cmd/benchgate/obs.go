package main

import (
	"strings"

	"reviewsolver/internal/core"
	"reviewsolver/internal/obs"
	"reviewsolver/internal/synth"
)

// obsMetrics collects the BENCH_OBS.json metrics: the telemetry registry
// state after draining the seeded sample corpus through an observed pool.
// Wall-clock-dependent keys (latency histogram buckets and sums) are
// filtered out — only their observation counts stay. Every count is an
// exact function of the seed: review/stage/mapping counters, kernel
// prescreen totals, match-similarity histogram buckets, and the drained
// pool gauges. The one float sum, match_similarity|sum, is not: the four
// workers add similarities in scheduling order, so it varies in its last
// bits between runs and only the relative tolerance holds it.
func obsMetrics() (map[string]float64, error) {
	data := synth.GenerateSample(seed)
	reg := obs.NewRegistry()
	pool := core.NewPool(4).WithObserver(obs.NewRecorder(reg, nil))

	reviews := make([]core.ReviewInput, len(data.Reviews))
	for i, rv := range data.Reviews {
		reviews[i] = core.ReviewInput{Text: rv.Text, PublishedAt: rv.PublishedAt}
	}
	pool.Localize(data.App, reviews)

	m := make(map[string]float64)
	for k, v := range reg.Snapshot() {
		if nondeterministicKey(k) {
			continue
		}
		m[k] = v
	}
	return m, nil
}

// nondeterministicKey reports whether a registry snapshot key carries
// wall-clock data. Latency histograms ("stage_<stage>_ns") have
// timing-dependent bucket spreads and sums; their "|count" entries — how
// many spans ran — are deterministic and stay in the gate.
func nondeterministicKey(k string) bool {
	if !strings.Contains(k, "_ns|") {
		return false
	}
	return !strings.HasSuffix(k, "|count")
}
