package main

import (
	"fmt"

	"reviewsolver/internal/serve"
)

// fleetobsMetrics runs the deterministic fleet-observability scenario
// (internal/serve/fleetsim.go) and flattens everything it pins into one
// metric map: the deterministic subset of the registry snapshot (labeled
// request counters, journal-drained event counters, registry gauges,
// pipeline counters — latency histograms reduced to their counts), the
// journal event sequence, the per-app SLO/error-budget arithmetic, and the
// digest artifact's exact byte length. Its gate is exact: every value is a
// count or a budget, and the scenario is byte-deterministic by contract.
func fleetobsMetrics() (map[string]float64, error) {
	res, err := serve.RunFleetSim(seed, 2)
	if err != nil {
		return nil, err
	}

	m := res.DeterministicMetrics()

	// The journal's (type, app) sequence, position by position, so a
	// reordered or missing lifecycle event fails as a changed/vanished key.
	m["journal|events"] = float64(len(res.Events))
	for i, ev := range res.Events {
		m[fmt.Sprintf("journal|%02d|%s|%s", i, ev.Type, ev.App)] = float64(ev.Seq)
	}

	// Per-app SLO rows: window counts and error-budget arithmetic.
	for _, a := range res.Digest.Apps {
		p := "slo|" + a.App + "|"
		m[p+"requests"] = float64(a.Requests)
		m[p+"errors"] = float64(a.Errors)
		m[p+"shed"] = float64(a.Shed)
		m[p+"slow"] = float64(a.Slow)
		m[p+"error_budget"] = float64(a.ErrorBudget)
		m[p+"budget_spent"] = float64(a.BudgetSpent)
		m[p+"budget_remaining"] = float64(a.BudgetRemaining)
		m[p+"budget_ratio"] = a.BudgetRatio
		m[p+"availability_met"] = boolMetric(a.AvailabilityMet)
		m[p+"latency_met"] = boolMetric(a.LatencyMet)
	}

	// The served artifact itself: byte length pins the exact encoding
	// (field order, indentation, float formatting) without storing it.
	m["digest|bytes"] = float64(len(res.DigestJSON))
	m["traces|stored"] = float64(res.TracesStored)
	return m, nil
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
