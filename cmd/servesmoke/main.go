// Command servesmoke is the CI smoke test for the serving layer: it boots a
// real reviewd daemon (in-process, on a free port), registers two compiled
// .snap apps over HTTP, drives concurrent localization traffic — including
// one injected fault — and verifies:
//
//   - every served single-review response is byte-for-byte identical to the
//     output of a direct in-process solver over the same snapshot (the
//     "serving adds nothing, loses nothing" property);
//   - batch responses preserve request order and complete under concurrency;
//   - exactly one injected panic is contained as a 500 while the daemon
//     keeps serving;
//   - the /metrics exposition carries the serving counters with the exact
//     expected totals, including the per-app labeled request counters (the
//     contained panic shows up as the app's one code="500" request);
//   - every response carries a deterministic X-Trace-Id and the sampled
//     explain trace is served back by /v1/trace/<id>;
//   - /v1/events reports the registry lifecycle journal (2 registers, 2
//     loads) and /v1/fleetstat's SLO digest validates with the exact
//     per-app request and error counts;
//   - graceful shutdown drains cleanly.
//
// Any deviation exits non-zero. Everything is offline and deterministic.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"reviewsolver/internal/core"
	"reviewsolver/internal/obs"
	"reviewsolver/internal/serve"
	"reviewsolver/internal/serve/faultinject"
	"reviewsolver/internal/synth"
)

const seed = 1

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "servesmoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("SERVE SMOKE PASS")
}

func run() error {
	// Compile two of the built-in evaluation apps to .snap files.
	table6 := synth.GenerateTable6(seed)
	appA, appB := table6[4], table6[0] // the K-9 sample fixture + one more
	dir, err := os.MkdirTemp("", "servesmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	paths := map[string]string{}
	for _, data := range []*synth.AppData{appA, appB} {
		img, err := core.EncodeSnapshot(core.NewSnapshot(), data.App)
		if err != nil {
			return fmt.Errorf("encode %s: %w", data.Info.Package, err)
		}
		p := filepath.Join(dir, data.Info.Package+".snap")
		if err := os.WriteFile(p, img, 0o644); err != nil {
			return err
		}
		paths[data.Info.Package] = p
	}

	// Boot the daemon with a fault injector armed for exactly one panic.
	met := obs.NewRegistry()
	inj := faultinject.New()
	inj.Arm(faultinject.PointRequest, faultinject.Fault{
		Err: faultinject.ErrPanic, Count: 1, Key: appB.Info.Package,
	})
	d := serve.NewDaemon(serve.Config{
		Metrics:  met,
		Injector: inj,
		// The full fleet-observability layer, as an operator would run it.
		TraceSampleEvery: 1,
		TraceSeed:        seed,
		JournalCapacity:  64,
		SLO:              &obs.SLOConfig{Availability: 0.95},
	})
	if err := d.Start("127.0.0.1:0"); err != nil {
		return err
	}
	base := "http://" + d.Addr()

	// Register both apps through the HTTP surface, like an operator would
	// (A then B, so the journal's register order is pinned).
	for _, data := range []*synth.AppData{appA, appB} {
		pkg := data.Info.Package
		status, body, err := post(base+"/v1/apps", serve.RegisterRequest{App: pkg, Version: "v1", Path: paths[pkg]})
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("register %s = %d: %s", pkg, status, body)
		}
	}

	// Expected bytes for each single-review request, computed by a direct
	// solver over the same snapshot images the daemon serves.
	expected := map[string]map[string][]byte{} // pkg → review → response bytes
	for _, data := range []*synth.AppData{appA, appB} {
		img, err := os.ReadFile(paths[data.Info.Package])
		if err != nil {
			return err
		}
		snap, app, err := core.LoadSnapshotBytes(img)
		if err != nil {
			return fmt.Errorf("direct load %s: %w", data.Info.Package, err)
		}
		solver := core.NewWithSnapshot(snap)
		byReview := map[string][]byte{}
		for _, rv := range data.Reviews[:smokeReviews(data)] {
			res := solver.LocalizeReview(app, rv.Text, rv.PublishedAt)
			resp := serve.LocalizeResponse{
				App:     data.Info.Package,
				Version: "v1",
				Results: []serve.LocalizeResult{serve.ResultToJSON(rv.Text, res)},
			}
			b, err := json.Marshal(resp)
			if err != nil {
				return err
			}
			byReview[rv.Text] = append(b, '\n')
		}
		expected[data.Info.Package] = byReview
	}

	// Concurrent load across both apps. The armed fault panics exactly one
	// appB request; everything else must serve 200 with exact bytes.
	type outcome struct {
		pkg, review string
		status      int
		body        []byte
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		results []outcome
	)
	for _, data := range []*synth.AppData{appA, appB} {
		pkg := data.Info.Package
		for _, rv := range data.Reviews[:smokeReviews(data)] {
			wg.Add(1)
			go func(review string, when time.Time) {
				defer wg.Done()
				status, body, err := post(base+"/v1/localize", serve.LocalizeRequest{
					App: pkg, Review: review, PublishedAt: when.Format(time.RFC3339),
				})
				if err != nil {
					status = -1
					body = []byte(err.Error())
				}
				mu.Lock()
				results = append(results, outcome{pkg, review, status, body})
				mu.Unlock()
			}(rv.Text, rv.PublishedAt)
		}
	}
	wg.Wait()

	var contained int
	for _, r := range results {
		switch r.status {
		case http.StatusOK:
			want := expected[r.pkg][r.review]
			if !bytes.Equal(r.body, want) {
				return fmt.Errorf("served response for %s/%q differs from the direct solver:\n got: %s\nwant: %s",
					r.pkg, r.review, r.body, want)
			}
		case http.StatusInternalServerError:
			contained++
			if r.pkg != appB.Info.Package {
				return fmt.Errorf("injected fault fired on %s, was keyed to %s", r.pkg, appB.Info.Package)
			}
		default:
			return fmt.Errorf("localize %s/%q = %d: %s", r.pkg, r.review, r.status, r.body)
		}
	}
	if contained != 1 {
		return fmt.Errorf("%d requests hit the injected panic, want exactly 1", contained)
	}

	// One failed request must not poison retries: the same review that
	// absorbed the panic serves fine now.
	for _, r := range results {
		if r.status != http.StatusInternalServerError {
			continue
		}
		status, body, err := post(base+"/v1/localize", serve.LocalizeRequest{App: r.pkg, Review: r.review})
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("retry after contained panic = %d: %s", status, body)
		}
	}

	// Batch request: order preserved, all results present.
	n := smokeReviews(appA)
	batch := make([]serve.BatchReview, n)
	for i := 0; i < n; i++ {
		batch[i] = serve.BatchReview{
			Review:      appA.Reviews[i].Text,
			PublishedAt: appA.Reviews[i].PublishedAt.Format(time.RFC3339),
		}
	}
	status, body, err := post(base+"/v1/localize", serve.LocalizeRequest{App: appA.Info.Package, Reviews: batch})
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("batch = %d: %s", status, body)
	}
	var batchResp serve.LocalizeResponse
	if err := json.Unmarshal(body, &batchResp); err != nil {
		return err
	}
	if len(batchResp.Results) != n {
		return fmt.Errorf("batch returned %d results, want %d", len(batchResp.Results), n)
	}
	for i, res := range batchResp.Results {
		if res.Review != batch[i].Review {
			return fmt.Errorf("batch result %d out of order: %q", i, res.Review)
		}
	}

	// Trace propagation: every response carries X-Trace-Id, and a sampled
	// request's explain trace is served back by that ID.
	rv0 := appA.Reviews[0]
	traceBody, _ := json.Marshal(serve.LocalizeRequest{
		App: appA.Info.Package, Review: rv0.Text, PublishedAt: rv0.PublishedAt.Format(time.RFC3339),
	})
	traceResp, err := http.Post(base+"/v1/localize", "application/json", bytes.NewReader(traceBody))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, traceResp.Body)
	traceResp.Body.Close()
	if traceResp.StatusCode != http.StatusOK {
		return fmt.Errorf("traced localize = %d", traceResp.StatusCode)
	}
	traceID := traceResp.Header.Get("X-Trace-Id")
	if traceID == "" {
		return fmt.Errorf("localize response carries no X-Trace-Id")
	}
	status, body, err = get(base + "/v1/trace/" + traceID)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("trace fetch %s = %d: %s", traceID, status, body)
	}
	if err := obs.ValidateTraceJSON(body); err != nil {
		return fmt.Errorf("served explain trace invalid: %w", err)
	}

	// Event journal: both apps registered (in order) and lazily loaded.
	status, body, err = get(base + "/v1/events")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("events = %d", status)
	}
	var events serve.EventsResponse
	if err := json.Unmarshal(body, &events); err != nil {
		return err
	}
	if events.Total != 4 || len(events.Events) != 4 || events.Dropped != 0 {
		return fmt.Errorf("journal = %d events (total %d, dropped %d), want exactly 4 retained", len(events.Events), events.Total, events.Dropped)
	}
	if events.Events[0].Type != obs.EventRegister || events.Events[0].App != appA.Info.Package ||
		events.Events[1].Type != obs.EventRegister || events.Events[1].App != appB.Info.Package {
		return fmt.Errorf("journal does not start with the two registers in order: %+v", events.Events[:2])
	}
	loads := 0
	for _, ev := range events.Events[2:] {
		if ev.Type != obs.EventLoad {
			return fmt.Errorf("unexpected journal event %+v, want load", ev)
		}
		loads++
	}
	if loads != 2 {
		return fmt.Errorf("journal has %d loads, want 2", loads)
	}

	// SLO digest: validates, and the window counts match the traffic —
	// including appB's one injected-panic 500 as its spent error budget.
	status, body, err = get(base + "/v1/fleetstat")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("fleetstat = %d", status)
	}
	if err := obs.ValidateFleetDigestJSON(body); err != nil {
		return fmt.Errorf("fleet digest invalid: %w", err)
	}
	var digest obs.FleetDigest
	if err := json.Unmarshal(body, &digest); err != nil {
		return err
	}
	wantSLO := map[string][2]int64{ // app → requests, errors
		appA.Info.Package: {int64(smokeReviews(appA)) + 2, 0}, // singles + batch + traced
		appB.Info.Package: {int64(smokeReviews(appB)) + 1, 1}, // singles (one panicked) + retry
	}
	if len(digest.Apps) != len(wantSLO) {
		return fmt.Errorf("fleet digest covers %d apps, want %d: %s", len(digest.Apps), len(wantSLO), body)
	}
	for _, a := range digest.Apps {
		want, ok := wantSLO[a.App]
		if !ok {
			return fmt.Errorf("fleet digest has unexpected app %q", a.App)
		}
		if a.Requests != want[0] || a.Errors != want[1] || a.BudgetSpent != a.Errors {
			return fmt.Errorf("fleet digest for %s: %d requests / %d errors (spent %d), want %d / %d",
				a.App, a.Requests, a.Errors, a.BudgetSpent, want[0], want[1])
		}
	}

	// Metrics scrape: the serving counters are present with exact totals —
	// aggregates and the per-app labeled children side by side.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	wantSingles := smokeReviews(appA) + smokeReviews(appB) + 2 // + the retry + the traced request
	wantReviews := wantSingles - 1 + n                         // panic answered no review; batch adds n
	for _, line := range []string{
		"counter serve_panics_total 1",
		fmt.Sprintf("counter serve_reviews_served_total %d", wantReviews),
		"counter serve_snapshot_loads_total 2",
		// Per-app labeled request counters, including the contained panic
		// as appB's single code="500" request.
		fmt.Sprintf(`counter serve_requests_total{app=%q,code="200",route="/v1/localize"} %d`,
			appA.Info.Package, smokeReviews(appA)+2),
		fmt.Sprintf(`counter serve_requests_total{app=%q,code="200",route="/v1/localize"} %d`,
			appB.Info.Package, smokeReviews(appB)),
		fmt.Sprintf(`counter serve_requests_total{app=%q,code="500",route="/v1/localize"} 1`, appB.Info.Package),
		// Journal events drained into labeled counters.
		fmt.Sprintf(`counter registry_events_total{app=%q,type="load"} 1`, appA.Info.Package),
		fmt.Sprintf(`counter registry_events_total{app=%q,type="register"} 1`, appB.Info.Package),
		// Registry byte-budget gauges.
		"gauge serve_registry_budget_bytes 0",
	} {
		if !strings.Contains(string(metrics), line) {
			return fmt.Errorf("metrics exposition missing %q:\n%s", line, metrics)
		}
	}

	// Registry listing agrees: two live apps.
	status, body, err = get(base + "/v1/apps")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("apps = %d", status)
	}
	var apps serve.AppsResponse
	if err := json.Unmarshal(body, &apps); err != nil {
		return err
	}
	live := 0
	for _, st := range apps.Apps {
		if st.State == "live" {
			live++
		}
	}
	if live != 2 || apps.ResidentBytes <= 0 {
		return fmt.Errorf("apps listing: %d live, %d resident bytes; want 2 live and > 0 bytes", live, apps.ResidentBytes)
	}

	// Drop the client's pooled keep-alive connections (including ones the
	// transport dialed speculatively and never used — the server holds those
	// in StateNew, where http.Server.Shutdown won't reap them for their
	// first 5 seconds) so the drain below measures the daemon, not the
	// client's connection pool.
	http.DefaultClient.CloseIdleConnections()
	if err := d.Close(); err != nil {
		return fmt.Errorf("graceful shutdown: %w", err)
	}
	return nil
}

// smokeReviews bounds per-app request volume so the smoke finishes fast.
func smokeReviews(data *synth.AppData) int {
	if len(data.Reviews) < 8 {
		return len(data.Reviews)
	}
	return 8
}

func post(url string, payload any) (int, []byte, error) {
	b, err := json.Marshal(payload)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func get(url string) (int, []byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}
