package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"reviewsolver/internal/core"
	"reviewsolver/internal/obs"
)

// TestFleetSimScenario pins the scenario's observable contract for one
// (seed, workers): the journal event skeleton, the per-app SLO arithmetic,
// the stored-trace count, and the per-app labeled request metrics.
func TestFleetSimScenario(t *testing.T) {
	res := runFleetSim(t, 3, 2)

	// Journal: exact (type, app) sequence, strictly increasing seq from 1,
	// and fake-clock timestamps (never wall time).
	skeleton := fleetSimEventSkeleton(res.AppA, res.AppB)
	if len(res.Events) != len(skeleton) {
		t.Fatalf("journal has %d events, want %d:\n%+v", len(res.Events), len(skeleton), res.Events)
	}
	simStart := time.Unix(fleetSimEpoch, 0).UnixNano()
	for i, ev := range res.Events {
		if got := [2]string{string(ev.Type), ev.App}; got != skeleton[i] {
			t.Errorf("event %d = %v, want %v", i, got, skeleton[i])
		}
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d seq = %d, want %d", i, ev.Seq, i+1)
		}
		if ev.Version != "v1" {
			t.Errorf("event %d version = %q, want v1", i, ev.Version)
		}
		if ev.UnixNs < simStart || ev.UnixNs > simStart+int64(10*time.Second) {
			t.Errorf("event %d unix_ns = %d, outside the fake-clock range", i, ev.UnixNs)
		}
	}

	// SLO digest: the exact window counts and error-budget arithmetic the
	// scenario's request outcomes imply.
	bySLOApp := map[string]obs.AppSLO{}
	for _, a := range res.Digest.Apps {
		bySLOApp[a.App] = a
	}
	wantSLO := map[string]obs.AppSLO{
		res.AppA:           {Requests: 16, Errors: 0, Shed: 3, ErrorBudget: 2, BudgetSpent: 0, BudgetRemaining: 2, BudgetRatio: 1, AvailabilityMet: true},
		res.AppB:           {Requests: 10, Errors: 1, Shed: 0, ErrorBudget: 1, BudgetSpent: 1, BudgetRemaining: 0, BudgetRatio: 0, AvailabilityMet: true},
		fleetSimCorruptApp: {Requests: 3, Errors: 3, Shed: 0, ErrorBudget: 0, BudgetSpent: 3, BudgetRemaining: -3, BudgetRatio: 0, AvailabilityMet: false},
		fleetSimFlakyApp:   {Requests: 3, Errors: 1, Shed: 0, ErrorBudget: 0, BudgetSpent: 1, BudgetRemaining: -1, BudgetRatio: 0, AvailabilityMet: false},
		fleetSimCloneApp:   {Requests: 1, Errors: 0, Shed: 0, ErrorBudget: 0, BudgetSpent: 0, BudgetRemaining: 0, BudgetRatio: 1, AvailabilityMet: true},
	}
	if len(bySLOApp) != len(wantSLO) {
		t.Fatalf("digest covers %d apps, want %d: %+v", len(bySLOApp), len(wantSLO), res.Digest.Apps)
	}
	for app, want := range wantSLO {
		got, ok := bySLOApp[app]
		if !ok {
			t.Errorf("digest missing app %q", app)
			continue
		}
		if got.Requests != want.Requests || got.Errors != want.Errors || got.Shed != want.Shed {
			t.Errorf("%s counts = %d req/%d err/%d shed, want %d/%d/%d",
				app, got.Requests, got.Errors, got.Shed, want.Requests, want.Errors, want.Shed)
		}
		if got.ErrorBudget != want.ErrorBudget || got.BudgetSpent != want.BudgetSpent ||
			got.BudgetRemaining != want.BudgetRemaining || got.BudgetRatio != want.BudgetRatio {
			t.Errorf("%s budget = %d/%d/%d ratio %g, want %d/%d/%d ratio %g",
				app, got.ErrorBudget, got.BudgetSpent, got.BudgetRemaining, got.BudgetRatio,
				want.ErrorBudget, want.BudgetSpent, want.BudgetRemaining, want.BudgetRatio)
		}
		if got.AvailabilityMet != want.AvailabilityMet {
			t.Errorf("%s availability_met = %v, want %v", app, got.AvailabilityMet, want.AvailabilityMet)
		}
		if got.Slow != 0 || !got.LatencyMet {
			t.Errorf("%s slow = %d latency_met = %v, want 0/true under the unreachable objective", app, got.Slow, got.LatencyMet)
		}
	}

	// Every successful single-review localize was sampled (every=1) and its
	// explain trace retained: 13 (A) + 9 (B) + 2 (flaky) + 1 (clone).
	if res.TracesStored != 25 {
		t.Errorf("TracesStored = %d, want 25", res.TracesStored)
	}

	// Per-app labeled request metrics, exact.
	wantMetrics := map[string]float64{
		fmt.Sprintf(`serve_requests_total{app=%q,code="200",route="/v1/localize"}`, res.AppA):           13,
		fmt.Sprintf(`serve_requests_total{app=%q,code="429",route="/v1/localize"}`, res.AppA):           3,
		fmt.Sprintf(`serve_requests_total{app=%q,code="200",route="/v1/localize"}`, res.AppB):           9,
		fmt.Sprintf(`serve_requests_total{app=%q,code="500",route="/v1/localize"}`, res.AppB):           1,
		fmt.Sprintf(`serve_requests_total{app=%q,code="503",route="/v1/localize"}`, fleetSimCorruptApp): 3,
		fmt.Sprintf(`serve_requests_total{app=%q,code="503",route="/v1/localize"}`, fleetSimFlakyApp):   1,
		fmt.Sprintf(`serve_requests_total{app=%q,code="200",route="/v1/localize"}`, fleetSimFlakyApp):   2,
		fmt.Sprintf(`serve_requests_total{app=%q,code="200",route="/v1/localize"}`, fleetSimCloneApp):   1,
		fmt.Sprintf(`serve_shed_total{app=%q}`, res.AppA):                                               3,
		fmt.Sprintf(`registry_events_total{app=%q,type="load_failure"}`, fleetSimCorruptApp):            2,
		fmt.Sprintf(`registry_events_total{app=%q,type="load"}`, res.AppB):                              2,
		fmt.Sprintf(`registry_events_total{app=%q,type="evict"}`, res.AppA):                             1,
	}
	for key, want := range wantMetrics {
		if got := res.Metrics[key]; got != want {
			t.Errorf("metric %s = %g, want %g", key, got, want)
		}
	}
	// The per-app labeled pipeline counters flowed through WithAppLabel into
	// the shared registry, and registry byte-budget gauges are exposed.
	if got := res.Metrics[fmt.Sprintf(`reviews_total{app=%q}`, res.AppA)]; got <= 0 {
		t.Errorf("reviews_total{app=A} = %g, want > 0", got)
	}
	if got := res.Metrics["serve_registry_budget_bytes"]; got <= 0 {
		t.Errorf("serve_registry_budget_bytes = %g, want > 0", got)
	}
}

// TestFleetSimDeterministic is the fleet-observability determinism
// contract: for each seed, the digest bytes, the journal, the stored-trace
// count, and the deterministic metric subset are identical across traffic
// worker counts (and hence across runs — workers=1 twice would be a strict
// subset of this).
func TestFleetSimDeterministic(t *testing.T) {
	for _, seed := range []int64{3, 5, 7, 9} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			base := runFleetSim(t, seed, 1)
			for _, workers := range []int{2, 4} {
				got := runFleetSim(t, seed, workers)
				if !bytes.Equal(got.DigestJSON, base.DigestJSON) {
					t.Errorf("workers=%d digest differs from workers=1:\n%s\nvs\n%s", workers, got.DigestJSON, base.DigestJSON)
				}
				if !reflect.DeepEqual(got.Events, base.Events) {
					t.Errorf("workers=%d journal differs from workers=1:\n%+v\nvs\n%+v", workers, got.Events, base.Events)
				}
				if got.TracesStored != base.TracesStored {
					t.Errorf("workers=%d stored %d traces, workers=1 stored %d", workers, got.TracesStored, base.TracesStored)
				}
				gm, bm := got.deterministicMetrics(), base.deterministicMetrics()
				if !reflect.DeepEqual(gm, bm) {
					for k, v := range bm {
						if gm[k] != v {
							t.Errorf("workers=%d metric %s = %g, workers=1 has %g", workers, k, gm[k], v)
						}
					}
					for k := range gm {
						if _, ok := bm[k]; !ok {
							t.Errorf("workers=%d extra metric %s", workers, k)
						}
					}
				}
			}
		})
	}
}

// TestFleetObsEndpoints exercises the three observability endpoints over
// HTTP: deterministic X-Trace-Id minting, the sampled-trace artifact, the
// lifecycle journal, and the fleet digest.
func TestFleetObsEndpoints(t *testing.T) {
	data, _ := samplePair(1)
	img, err := core.EncodeSnapshot(core.NewSnapshot(), data.App)
	if err != nil {
		t.Fatal(err)
	}
	clk := &fleetClock{t: time.Unix(fleetSimEpoch, 0)}
	d := NewDaemon(Config{
		Metrics:          obs.NewRegistry(),
		TraceSampleEvery: 1,
		TraceSeed:        7,
		JournalCapacity:  16,
		SLO:              &obs.SLOConfig{Availability: 0.99},
		Clock:            clk.Now,
	})
	defer d.Close()
	app := data.Info.Package
	registerImage(t, d.Registry(), app, "v1", img)

	do := func(method, path string, body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		w := httptest.NewRecorder()
		d.mux.ServeHTTP(w, req)
		return w
	}

	rv := data.Reviews[0]
	body, _ := json.Marshal(LocalizeRequest{App: app, Review: rv.Text, PublishedAt: rv.PublishedAt.Format(time.RFC3339)})
	w := do("POST", "/v1/localize", body)
	if w.Code != 200 {
		t.Fatalf("localize = %d: %s", w.Code, w.Body)
	}
	traceID := w.Header().Get("X-Trace-Id")
	if want := obs.NewTraceSource(7, 1).Next().ID; traceID != want {
		t.Fatalf("X-Trace-Id = %q, want the deterministic first ID %q", traceID, want)
	}

	// The sampled request's explain trace is served back by ID, byte for
	// byte the trace a direct solver over the same image writes.
	w = do("GET", "/v1/trace/"+traceID, nil)
	if w.Code != 200 {
		t.Fatalf("trace fetch = %d: %s", w.Code, w.Body)
	}
	snap, lapp, err := core.LoadSnapshotBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	_, tr := core.NewWithSnapshot(snap).LocalizeReviewTraced(lapp, rv.Text, rv.PublishedAt)
	wantTrace, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Body.Bytes(), wantTrace) {
		t.Fatalf("served trace differs from the direct solver's:\n got: %s\nwant: %s", w.Body, wantTrace)
	}

	// Unknown trace IDs are typed 404s.
	w = do("GET", "/v1/trace/deadbeef", nil)
	if w.Code != 404 {
		t.Fatalf("unknown trace = %d, want 404", w.Code)
	}
	var eb ErrorBody
	if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Error.Kind != "unknown_trace" {
		t.Fatalf("unknown trace kind = %q (err %v), want unknown_trace", eb.Error.Kind, err)
	}

	// The journal recorded the register and the lazy load, in order, with
	// fake-clock timestamps.
	w = do("GET", "/v1/events", nil)
	if w.Code != 200 {
		t.Fatalf("events = %d: %s", w.Code, w.Body)
	}
	var ev EventsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &ev); err != nil {
		t.Fatalf("events decode: %v", err)
	}
	if ev.Total != 2 || len(ev.Events) != 2 ||
		ev.Events[0].Type != obs.EventRegister || ev.Events[1].Type != obs.EventLoad {
		t.Fatalf("events = %+v, want [register, load] with total 2", ev)
	}
	if ev.Events[1].UnixNs != time.Unix(fleetSimEpoch, 0).UnixNano() {
		t.Errorf("load event unix_ns = %d, want the injected clock's instant", ev.Events[1].UnixNs)
	}

	// The fleet digest is the SLO tracker's own encoding and covers the
	// served app.
	w = do("GET", "/v1/fleetstat", nil)
	if w.Code != 200 {
		t.Fatalf("fleetstat = %d: %s", w.Code, w.Body)
	}
	wantDigest, err := d.slo.Digest().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Body.Bytes(), wantDigest) {
		t.Fatalf("served digest differs from the tracker's encoding:\n got: %s\nwant: %s", w.Body, wantDigest)
	}
	var fd obs.FleetDigest
	if err := json.Unmarshal(w.Body.Bytes(), &fd); err != nil {
		t.Fatal(err)
	}
	if len(fd.Apps) != 1 || fd.Apps[0].App != app || fd.Apps[0].Requests != 1 {
		t.Fatalf("fleetstat apps = %+v, want one row for %s with 1 request", fd.Apps, app)
	}

	// /metrics carries the labeled request counter next to the aggregates.
	w = do("GET", "/metrics", nil)
	wantLine := fmt.Sprintf(`serve_requests_total{app=%q,code="200",route="/v1/localize"}`, app)
	if !strings.Contains(w.Body.String(), wantLine) {
		t.Errorf("/metrics missing %s:\n%s", wantLine, w.Body)
	}
}

var update = flag.Bool("update", false, "rewrite bench/BENCH_FLEETOBS.json from this run")

// fleetObsGolden is the committed fleet-observability golden. It keeps the
// BENCH_<name>.json layout of benchgate's baselines.
const fleetObsGolden = "../../bench/BENCH_FLEETOBS.json"

type fleetObsFile struct {
	Table   int                `json:"table"`
	ID      string             `json:"id"`
	Title   string             `json:"title"`
	Seed    int64              `json:"seed"`
	Metrics map[string]float64 `json:"metrics"`
}

// fleetObsMetrics flattens everything the scenario pins into one metric
// map: the deterministic subset of the registry snapshot (labeled request
// counters, journal-drained event counters, registry gauges, pipeline
// counters — latency histograms reduced to their counts), the journal
// event sequence, the per-app SLO/error-budget arithmetic, and the digest
// artifact's exact byte length. Every value is a count or a budget.
func fleetObsMetrics(res *fleetSimResult) map[string]float64 {
	m := res.deterministicMetrics()

	// The journal's (type, app) sequence, position by position, so a
	// reordered or missing lifecycle event fails as a changed/vanished key.
	m["journal|events"] = float64(len(res.Events))
	for i, ev := range res.Events {
		m[fmt.Sprintf("journal|%02d|%s|%s", i, ev.Type, ev.App)] = float64(ev.Seq)
	}

	// Per-app SLO rows: window counts and error-budget arithmetic.
	boolMetric := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
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
	return m
}

// TestFleetObsGolden compares the seed-1, two-worker scenario with the
// committed bench/BENCH_FLEETOBS.json at zero tolerance: a changed value, a
// vanished key and a new key all fail. `go test -run TestFleetObsGolden
// ./internal/serve -update` rewrites the file from this run.
func TestFleetObsGolden(t *testing.T) {
	const seed = 1
	got := fleetObsMetrics(runFleetSim(t, seed, 2))
	if *update {
		data, err := json.MarshalIndent(fleetObsFile{
			ID:      "fleetobs",
			Title:   "Fleet observability: labeled metrics, journal, SLO budgets",
			Seed:    seed,
			Metrics: got,
		}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fleetObsGolden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(fleetObsGolden)
	if err != nil {
		t.Fatal(err)
	}
	var golden fleetObsFile
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatalf("parse %s: %v", fleetObsGolden, err)
	}
	if golden.Seed != seed {
		t.Fatalf("%s was taken at seed %d, want %d", fleetObsGolden, golden.Seed, seed)
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	for k := range golden.Metrics {
		if _, ok := got[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		want, inGolden := golden.Metrics[k]
		g, inRun := got[k]
		switch {
		case !inGolden:
			t.Errorf("%s: new metric %v (not in %s)", k, g, fleetObsGolden)
		case !inRun:
			t.Errorf("%s: metric vanished (golden %v)", k, want)
		case g != want:
			t.Errorf("%s = %v, golden %v", k, g, want)
		}
	}
}
