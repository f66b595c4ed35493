package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"reviewsolver/internal/apk"
	"reviewsolver/internal/core"
	"reviewsolver/internal/obs"
	"reviewsolver/internal/serve/faultinject"
	"reviewsolver/internal/synth"
)

// testDaemon builds a daemon with the sample app registered and handler-level
// plumbing for requests; no listener unless a test calls Start itself.
type testDaemon struct {
	d   *Daemon
	met *obs.Registry
	inj *faultinject.Injector
}

func newTestDaemon(t *testing.T, mutate func(*Config)) *testDaemon {
	t.Helper()
	_, img := sampleImage(t)
	met := obs.NewRegistry()
	inj := faultinject.New()
	cfg := Config{Metrics: met, Injector: inj, PoolWorkers: 2}
	if mutate != nil {
		mutate(&cfg)
	}
	d := NewDaemon(cfg)
	registerImage(t, d.Registry(), "app.sample", "v1", img)
	return &testDaemon{d: d, met: met, inj: inj}
}

// do runs one request through the daemon handler and returns the recorder.
func (td *testDaemon) do(method, path string, body any) *httptest.ResponseRecorder {
	var rd *bytes.Reader
	if body != nil {
		b, _ := json.Marshal(body)
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	td.d.mux.ServeHTTP(w, req)
	return w
}

func errorKind(t *testing.T, w *httptest.ResponseRecorder) string {
	t.Helper()
	var eb ErrorBody
	if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
		t.Fatalf("error body %q does not decode: %v", w.Body.String(), err)
	}
	return eb.Error.Kind
}

func TestLocalizeSingleMatchesDirectSolverByteForByte(t *testing.T) {
	data, img := sampleImage(t)
	td := newTestDaemon(t, nil)

	// Expected bytes, computed locally with the same snapshot and encoder.
	snap, app, err := core.LoadSnapshotBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	solver := core.NewWithSnapshot(snap)
	ranked := 0
	for i, rv := range data.Reviews[:16] {
		w := td.do("POST", "/v1/localize", LocalizeRequest{
			App:         "app.sample",
			Review:      rv.Text,
			PublishedAt: rv.PublishedAt.Format(time.RFC3339),
		})
		if w.Code != http.StatusOK {
			t.Fatalf("review %d: localize = %d: %s", i, w.Code, w.Body.String())
		}
		want, res := directResponse(t, solver, app, "app.sample", rv)
		if !bytes.Equal(w.Body.Bytes(), want) {
			t.Fatalf("review %d: served response differs from direct solver output:\n got: %s\nwant: %s", i, w.Body.Bytes(), want)
		}
		ranked += len(res.Ranked)
	}
	// Pins the sample's localization output: the 16 reviews rank 10
	// classes between them.
	if ranked != 10 {
		t.Fatalf("16 sample reviews ranked %d classes, want 10", ranked)
	}
}

// directResponse returns the bytes /v1/localize must serve for one review
// of pkg at version v1 (the direct solver's result through the response
// encoder) and that result.
func directResponse(t *testing.T, solver *core.Solver, app *apk.App, pkg string, rv synth.Review) ([]byte, *core.Result) {
	t.Helper()
	res := solver.LocalizeReview(app, rv.Text, rv.PublishedAt)
	b, err := json.Marshal(LocalizeResponse{App: pkg, Version: "v1", Results: []LocalizeResult{ResultToJSON(rv.Text, res)}})
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n'), res
}

// TestServeThroughputAndTailLatency holds two wall-clock floors loose
// enough that only an order-of-magnitude regression trips them (accidental
// sequentialization, a lock on the hot path, a spin loop): at least 20
// reviews/s over a batch of the whole sample corpus, and a p99 of at most
// 2 s over 30 single-review requests.
func TestServeThroughputAndTailLatency(t *testing.T) {
	const (
		minReviewsPerSec = 20.0
		maxP99           = 2 * time.Second
		samples          = 30
	)
	data, _ := sampleImage(t)
	td := newTestDaemon(t, nil)
	// Warm the snapshot so the measurements exclude the one-time load.
	if w := td.do("POST", "/v1/localize", LocalizeRequest{App: "app.sample", Review: data.Reviews[0].Text}); w.Code != http.StatusOK {
		t.Fatalf("warm-up = %d: %s", w.Code, w.Body.String())
	}

	batch := make([]BatchReview, len(data.Reviews))
	for i, rv := range data.Reviews {
		batch[i] = BatchReview{Review: rv.Text, PublishedAt: rv.PublishedAt.Format(time.RFC3339)}
	}
	start := time.Now()
	w := td.do("POST", "/v1/localize", LocalizeRequest{App: "app.sample", Reviews: batch})
	elapsed := time.Since(start)
	if w.Code != http.StatusOK {
		t.Fatalf("batch = %d: %s", w.Code, w.Body.String())
	}
	if rate := float64(len(batch)) / elapsed.Seconds(); rate < minReviewsPerSec {
		t.Errorf("batch of %d reviews served at %.1f reviews/s, want at least %.0f", len(batch), rate, minReviewsPerSec)
	}

	lat := make([]time.Duration, samples)
	for i := range lat {
		rv := data.Reviews[i%len(data.Reviews)]
		req := LocalizeRequest{App: "app.sample", Review: rv.Text, PublishedAt: rv.PublishedAt.Format(time.RFC3339)}
		t0 := time.Now()
		w := td.do("POST", "/v1/localize", req)
		lat[i] = time.Since(t0)
		if w.Code != http.StatusOK {
			t.Fatalf("sample %d = %d: %s", i, w.Code, w.Body.String())
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if p99 := lat[len(lat)*99/100]; p99 > maxP99 {
		t.Errorf("p99 over %d single requests = %v, want at most %v", samples, p99, maxP99)
	}
}

func TestLocalizeBatchPreservesOrder(t *testing.T) {
	data, _ := sampleImage(t)
	td := newTestDaemon(t, nil)
	n := 6
	if n > len(data.Reviews) {
		n = len(data.Reviews)
	}
	reqs := make([]BatchReview, n)
	for i := 0; i < n; i++ {
		reqs[i] = BatchReview{
			Review:      data.Reviews[i].Text,
			PublishedAt: data.Reviews[i].PublishedAt.Format(time.RFC3339),
		}
	}
	w := td.do("POST", "/v1/localize", LocalizeRequest{App: "app.sample", Reviews: reqs})
	if w.Code != http.StatusOK {
		t.Fatalf("batch localize = %d: %s", w.Code, w.Body.String())
	}
	var resp LocalizeResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != n {
		t.Fatalf("batch returned %d results, want %d", len(resp.Results), n)
	}
	for i, r := range resp.Results {
		if r.Review != reqs[i].Review {
			t.Fatalf("result %d is for %q, want %q (order lost)", i, r.Review, reqs[i].Review)
		}
	}
	if got := td.met.Counter(metricReviews).Value(); got != int64(n) {
		t.Fatalf("reviews_served_total = %d, want %d", got, n)
	}
}

func TestLocalizeRequestValidation(t *testing.T) {
	td := newTestDaemon(t, nil)
	for name, tc := range map[string]struct {
		body   any
		status int
		kind   string
	}{
		"missing app":       {LocalizeRequest{Review: "crash"}, 400, "bad_request"},
		"no reviews":        {LocalizeRequest{App: "app.sample"}, 400, "bad_request"},
		"both forms":        {LocalizeRequest{App: "app.sample", Review: "x", Reviews: []BatchReview{{Review: "y"}}}, 400, "bad_request"},
		"bad published_at":  {LocalizeRequest{App: "app.sample", Review: "x", PublishedAt: "yesterday"}, 400, "bad_request"},
		"unknown app":       {LocalizeRequest{App: "app.ghost", Review: "x"}, 404, "unknown_app"},
		"unknown version":   {LocalizeRequest{App: "app.sample", Version: "v99", Review: "x"}, 404, "unknown_app"},
		"malformed body":    {"not json", 400, "bad_request"},
		"classify no body":  {ClassifyRequest{}, 0, ""}, // handled below
		"register no paths": {RegisterRequest{App: "a"}, 0, ""},
	} {
		switch name {
		case "classify no body":
			w := td.do("POST", "/v1/classify", tc.body)
			if w.Code != 400 || errorKind(t, w) != "bad_request" {
				t.Errorf("classify empty = %d/%s, want 400/bad_request", w.Code, errorKind(t, w))
			}
			continue
		case "register no paths":
			w := td.do("POST", "/v1/apps", tc.body)
			if w.Code != 400 || errorKind(t, w) != "bad_request" {
				t.Errorf("register partial = %d/%s, want 400/bad_request", w.Code, errorKind(t, w))
			}
			continue
		}
		w := td.do("POST", "/v1/localize", tc.body)
		if w.Code != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", name, w.Code, tc.status, w.Body.String())
			continue
		}
		if kind := errorKind(t, w); kind != tc.kind {
			t.Errorf("%s: kind %q, want %q", name, kind, tc.kind)
		}
	}
}

func TestClassifyUsesConfiguredClassifier(t *testing.T) {
	td := newTestDaemon(t, func(c *Config) {
		c.Classify = func(text string) bool { return strings.Contains(text, "crash") }
	})
	for review, want := range map[string]bool{
		"the app crashes on login": true,
		"love this app five stars": false,
	} {
		w := td.do("POST", "/v1/classify", ClassifyRequest{Review: review})
		if w.Code != http.StatusOK {
			t.Fatalf("classify = %d: %s", w.Code, w.Body.String())
		}
		var resp ClassifyResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.IsError != want {
			t.Errorf("classify(%q) = %v, want %v", review, resp.IsError, want)
		}
	}
}

func TestAppsAndMetricsEndpoints(t *testing.T) {
	td := newTestDaemon(t, nil)
	// Warm the sample app so /v1/apps shows it live.
	data, _ := sampleImage(t)
	td.do("POST", "/v1/localize", LocalizeRequest{App: "app.sample", Review: data.Reviews[0].Text})

	w := td.do("GET", "/v1/apps", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("apps = %d", w.Code)
	}
	var apps AppsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &apps); err != nil {
		t.Fatal(err)
	}
	if len(apps.Apps) != 1 || apps.Apps[0].App != "app.sample" || apps.Apps[0].State != "live" {
		t.Fatalf("apps listing = %+v, want one live app.sample", apps.Apps)
	}
	if apps.ResidentBytes <= 0 {
		t.Fatalf("resident_bytes = %d, want > 0 with a live snapshot", apps.ResidentBytes)
	}

	m := td.do("GET", "/metrics", nil)
	for _, want := range []string{metricRequests, metricLoads, metricRegistryBytes, "gauge " + metricRegistryBudget + " 0"} {
		if !strings.Contains(m.Body.String(), want) {
			t.Errorf("/metrics missing %s:\n%s", want, m.Body.String())
		}
	}
}

func TestRegisterEndpointServesFromFile(t *testing.T) {
	_, img := sampleImage(t)
	dir := t.TempDir()
	path := dir + "/sample.snap"
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	td := newTestDaemon(t, nil)
	w := td.do("POST", "/v1/apps", RegisterRequest{App: "app.disk", Version: "v7", Path: path})
	if w.Code != http.StatusOK {
		t.Fatalf("register = %d: %s", w.Code, w.Body.String())
	}
	data, _ := sampleImage(t)
	lw := td.do("POST", "/v1/localize", LocalizeRequest{App: "app.disk", Review: data.Reviews[0].Text})
	if lw.Code != http.StatusOK {
		t.Fatalf("localize registered file = %d: %s", lw.Code, lw.Body.String())
	}
	var resp LocalizeResponse
	if err := json.Unmarshal(lw.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Version != "v7" {
		t.Fatalf("served version = %s, want v7", resp.Version)
	}
}

// --- chaos scenarios ---------------------------------------------------------------

// TestChaosLoadFailureIsolation: a failing snapshot load answers 503 with the
// load_failed kind, and a healthy app registered beside it keeps serving.
func TestChaosLoadFailureIsolation(t *testing.T) {
	data, _ := sampleImage(t)
	td := newTestDaemon(t, nil)
	registerImage(t, td.d.Registry(), "app.bad", "v1", corruptImage(t))

	w := td.do("POST", "/v1/localize", LocalizeRequest{App: "app.bad", Review: "it crashes"})
	if w.Code != http.StatusServiceUnavailable || errorKind(t, w) != "load_failed" {
		t.Fatalf("corrupt app = %d/%s, want 503/load_failed", w.Code, errorKind(t, w))
	}
	// Further hits inside the quarantine window: rejected with the
	// quarantined kind and a Retry-After hint, no second load attempt.
	for i := 0; i < 2; i++ {
		w2 := td.do("POST", "/v1/localize", LocalizeRequest{App: "app.bad", Review: "it crashes"})
		if w2.Code != http.StatusServiceUnavailable || errorKind(t, w2) != "quarantined" {
			t.Fatalf("probe %d: quarantined app = %d/%s, want 503/quarantined", i, w2.Code, errorKind(t, w2))
		}
		if w2.Header().Get("Retry-After") == "" {
			t.Fatalf("probe %d: quarantined response missing Retry-After header", i)
		}
	}
	if got := td.met.Counter(metricQuarantined).Value(); got != 1 {
		t.Fatalf("quarantined_total = %d, want 1", got)
	}

	healthy := td.do("POST", "/v1/localize", LocalizeRequest{App: "app.sample", Review: data.Reviews[0].Text})
	if healthy.Code != http.StatusOK {
		t.Fatalf("healthy app beside quarantined one = %d: %s", healthy.Code, healthy.Body.String())
	}
}

// TestChaosSlowLoadDeadline: a load or a request slower than the request
// timeout answers 504 with the deadline kind, and serve_deadline_total
// counts it whichever layer ran out of time.
func TestChaosSlowLoadDeadline(t *testing.T) {
	data, _ := sampleImage(t)
	body := LocalizeRequest{App: "app.sample", Review: data.Reviews[0].Text}
	for _, point := range []faultinject.Point{faultinject.PointSnapshotLoad, faultinject.PointRequest} {
		td := newTestDaemon(t, func(c *Config) { c.RequestTimeout = 50 * time.Millisecond })
		td.inj.Arm(point, faultinject.Fault{Delay: 5 * time.Second, Count: 1})

		w := td.do("POST", "/v1/localize", body)
		if w.Code != http.StatusGatewayTimeout || errorKind(t, w) != "deadline" {
			t.Fatalf("%s: slow = %d/%s, want 504/deadline", point, w.Code, errorKind(t, w))
		}
		if got := td.met.Counter(metricDeadlines).Value(); got != 1 {
			t.Fatalf("%s: deadline_total = %d, want 1", point, got)
		}
		// The fault is exhausted; the same app serves fine on the next request.
		w2 := td.do("POST", "/v1/localize", body)
		if w2.Code != http.StatusOK {
			t.Fatalf("%s: after slow fault = %d: %s", point, w2.Code, w2.Body.String())
		}
	}
}

// TestChaosQueueSaturation: with one execution slot held by a blocked request
// and the waiting line full, every further arrival sheds deterministically
// with 429 + Retry-After — and everything completes once the block lifts.
func TestChaosQueueSaturation(t *testing.T) {
	const queueDepth = 2
	td := newTestDaemon(t, func(c *Config) {
		c.MaxConcurrent = 1
		c.QueueDepth = queueDepth
		c.RequestTimeout = 30 * time.Second
	})
	gate := make(chan struct{})
	td.inj.Arm(faultinject.PointRequest, faultinject.Fault{Block: gate, Count: 1})

	data, _ := sampleImage(t)
	body := LocalizeRequest{App: "app.sample", Review: data.Reviews[0].Text}

	// One request blocks in execution; queueDepth more wait for the slot.
	var wg sync.WaitGroup
	codes := make([]int, 1+queueDepth)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = td.do("POST", "/v1/localize", body).Code
		}(i)
		if i == 0 {
			waitFor(t, "blocked request holds its slot", func() bool {
				return td.met.Gauge(metricInflight).Value() == 1
			})
		}
	}
	waitFor(t, "waiting line fills", func() bool {
		return td.met.Gauge(metricQueueDepth).Value() == queueDepth
	})

	// The line is full: these arrivals must shed, every one of them.
	const probes = 3
	for i := 0; i < probes; i++ {
		w := td.do("POST", "/v1/localize", body)
		if w.Code != http.StatusTooManyRequests || errorKind(t, w) != "queue_full" {
			t.Fatalf("probe %d = %d/%s, want 429/queue_full", i, w.Code, errorKind(t, w))
		}
		if ra := w.Header().Get("Retry-After"); ra != "1" {
			t.Fatalf("probe %d Retry-After = %q, want \"1\"", i, ra)
		}
	}
	if got := td.met.Counter(metricShed).Value(); got != probes {
		t.Fatalf("shed_total = %d, want exactly %d", got, probes)
	}

	close(gate)
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("admitted request %d = %d, want 200 after the block lifted", i, code)
		}
	}
	if got := td.met.Gauge(metricQueueDepth).Value(); got != 0 {
		t.Fatalf("queue gauge = %d after drain, want 0", got)
	}
	if got := td.met.Gauge(metricInflight).Value(); got != 0 {
		t.Fatalf("inflight gauge = %d after drain, want 0", got)
	}
}

// TestChaosMidRequestCancellation: a client that walks away while its request
// is blocked mid-execution gets the deadline error path, not a hang.
func TestChaosMidRequestCancellation(t *testing.T) {
	td := newTestDaemon(t, nil)
	td.inj.Arm(faultinject.PointRequest, faultinject.Fault{Block: make(chan struct{}), Count: 1})

	data, _ := sampleImage(t)
	b, _ := json.Marshal(LocalizeRequest{App: "app.sample", Review: data.Reviews[0].Text})
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("POST", "/v1/localize", bytes.NewReader(b)).WithContext(ctx)
	w := httptest.NewRecorder()

	done := make(chan struct{})
	go func() {
		defer close(done)
		td.d.mux.ServeHTTP(w, req)
	}()
	waitFor(t, "request reaches the block", func() bool {
		return td.inj.Fired(faultinject.PointRequest) == 1
	})
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled request never returned")
	}
	if w.Code != http.StatusGatewayTimeout || errorKind(t, w) != "deadline" {
		t.Fatalf("cancelled request = %d/%s, want 504/deadline", w.Code, errorKind(t, w))
	}
	if got := td.met.Counter(metricDeadlines).Value(); got != 1 {
		t.Fatalf("deadline_total = %d, want 1", got)
	}
}

// TestChaosPanicContainment: an injected panic answers 500, increments the
// panic counter, and leaves the daemon serving.
func TestChaosPanicContainment(t *testing.T) {
	td := newTestDaemon(t, nil)
	td.inj.Arm(faultinject.PointRequest, faultinject.Fault{Err: faultinject.ErrPanic, Count: 1})

	data, _ := sampleImage(t)
	body := LocalizeRequest{App: "app.sample", Review: data.Reviews[0].Text}
	w := td.do("POST", "/v1/localize", body)
	if w.Code != http.StatusInternalServerError || errorKind(t, w) != "internal" {
		t.Fatalf("panicking request = %d/%s, want 500/internal", w.Code, errorKind(t, w))
	}
	if got := td.met.Counter(metricPanics).Value(); got != 1 {
		t.Fatalf("panics_total = %d, want 1", got)
	}
	// The daemon survived: the very next request serves normally.
	w2 := td.do("POST", "/v1/localize", body)
	if w2.Code != http.StatusOK {
		t.Fatalf("request after contained panic = %d: %s", w2.Code, w2.Body.String())
	}
}

// TestChaosGracefulShutdown: shutdown drains the in-flight request to a real
// response while new arrivals are refused with 503 shutting_down.
func TestChaosGracefulShutdown(t *testing.T) {
	td := newTestDaemon(t, nil)
	if err := td.d.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	td.inj.Arm(faultinject.PointRequest, faultinject.Fault{Block: gate, Count: 1})

	data, _ := sampleImage(t)
	b, _ := json.Marshal(LocalizeRequest{App: "app.sample", Review: data.Reviews[0].Text})
	url := "http://" + td.d.Addr() + "/v1/localize"

	inflight := make(chan int, 1)
	go func() {
		resp, err := http.Post(url, "application/json", bytes.NewReader(b))
		if err != nil {
			inflight <- -1
			return
		}
		resp.Body.Close()
		inflight <- resp.StatusCode
	}()
	waitFor(t, "in-flight request reaches the block", func() bool {
		return td.inj.Fired(faultinject.PointRequest) == 1
	})

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- td.d.Close() }()
	waitFor(t, "daemon flips to draining", func() bool { return td.d.draining.Load() })

	// New arrivals (through the handler — the listener is closing) refuse
	// with the shutting_down kind instead of being dropped on the floor.
	w := td.do("POST", "/v1/localize", LocalizeRequest{App: "app.sample", Review: data.Reviews[0].Text})
	if w.Code != http.StatusServiceUnavailable || errorKind(t, w) != "shutting_down" {
		t.Fatalf("request during drain = %d/%s, want 503/shutting_down", w.Code, errorKind(t, w))
	}

	close(gate)
	// Drop pooled client conns (incl. speculative never-used dials, which
	// the server holds in StateNew and Shutdown won't reap within the 5s
	// drain budget) so the drain completes as soon as the in-flight request
	// does.
	http.DefaultClient.CloseIdleConnections()
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Close = %v, want clean drain", err)
	}
	if got := <-inflight; got != http.StatusOK {
		t.Fatalf("in-flight request during shutdown = %d, want 200 (drained)", got)
	}
}

// TestChaosHotSwapUnderFire: re-registering an app while requests stream
// against it never produces an error response — old leases drain, new
// requests serve from the replacement.
func TestChaosHotSwapUnderFire(t *testing.T) {
	_, img := sampleImage(t)
	td := newTestDaemon(t, func(c *Config) { c.MaxConcurrent = 4 })
	data, _ := sampleImage(t)
	body := LocalizeRequest{App: "app.sample", Review: data.Reviews[0].Text}

	stop := make(chan struct{})
	errs := make(chan string, 64)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if w := td.do("POST", "/v1/localize", body); w.Code != http.StatusOK {
					select {
					case errs <- fmt.Sprintf("%d: %s", w.Code, w.Body.String()):
					default:
					}
				}
			}
		}()
	}
	for i := 0; i < 5; i++ {
		time.Sleep(10 * time.Millisecond)
		registerImage(t, td.d.Registry(), "app.sample", "v1", img)
	}
	close(stop)
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatalf("request failed during hot-swap: %s", e)
	default:
	}
	if got := td.met.Counter(metricHotSwaps).Value(); got != 5 {
		t.Fatalf("hotswaps_total = %d, want 5", got)
	}
}

// TestServeSmoke runs the daemon the way an operator does: on a real
// listener, with two apps registered over HTTP from compiled .snap files,
// under concurrent single-review traffic to both and one panic armed for
// the second app, with the full fleet-observability layer on. Every request
// is sampled, so every 200 comes from the traced localization path and is
// byte-identical to a direct, untraced solver over the same image; exactly
// one request panics and it is the armed app's, and the daemon still drains
// cleanly.
func TestServeSmoke(t *testing.T) {
	const perApp = 8
	appA, appB := samplePair(1)
	apps := []*synth.AppData{appA, appB}

	inj := faultinject.New()
	inj.Arm(faultinject.PointRequest, faultinject.Fault{Err: faultinject.ErrPanic, Count: 1, Key: appB.Info.Package})
	d := NewDaemon(Config{
		Metrics:          obs.NewRegistry(),
		Injector:         inj,
		TraceSampleEvery: 1,
		TraceSeed:        1,
		JournalCapacity:  64,
		SLO:              &obs.SLOConfig{Availability: 0.95},
	})
	if err := d.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	base := "http://" + d.Addr()
	post := func(path string, payload any) (int, []byte, error) {
		b, err := json.Marshal(payload)
		if err != nil {
			return 0, nil, err
		}
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(b))
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, body, err
	}

	// Compile both apps, register them over HTTP, and compute the expected
	// response bytes with a direct solver over the same images.
	dir := t.TempDir()
	want := make([][][]byte, len(apps))
	for a, data := range apps {
		pkg := data.Info.Package
		img, err := core.EncodeSnapshot(core.NewSnapshot(), data.App)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, pkg+".snap")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		if status, body, err := post("/v1/apps", RegisterRequest{App: pkg, Version: "v1", Path: path}); err != nil || status != http.StatusOK {
			t.Fatalf("register %s = %d (%v): %s", pkg, status, err, body)
		}
		snap, app, err := core.LoadSnapshotBytes(img)
		if err != nil {
			t.Fatal(err)
		}
		solver := core.NewWithSnapshot(snap)
		for _, rv := range data.Reviews[:perApp] {
			b, _ := directResponse(t, solver, app, pkg, rv)
			want[a] = append(want[a], b)
		}
	}

	type outcome struct {
		status int
		body   []byte
		err    error
	}
	got := make([][]outcome, len(apps))
	var wg sync.WaitGroup
	for a, data := range apps {
		got[a] = make([]outcome, perApp)
		for i, rv := range data.Reviews[:perApp] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				status, body, err := post("/v1/localize", LocalizeRequest{
					App: data.Info.Package, Review: rv.Text, PublishedAt: rv.PublishedAt.Format(time.RFC3339),
				})
				got[a][i] = outcome{status, body, err}
			}()
		}
	}
	wg.Wait()

	panics := 0
	for a, data := range apps {
		for i, o := range got[a] {
			switch {
			case o.err != nil:
				t.Errorf("%s review %d: %v", data.Info.Package, i, o.err)
			case o.status == http.StatusInternalServerError && a == 1:
				panics++
			case o.status != http.StatusOK:
				t.Errorf("%s review %d = %d: %s", data.Info.Package, i, o.status, o.body)
			case !bytes.Equal(o.body, want[a][i]):
				t.Errorf("%s review %d: served response differs from the direct solver:\n got: %s\nwant: %s",
					data.Info.Package, i, o.body, want[a][i])
			}
		}
	}
	if panics != 1 {
		t.Errorf("%d requests to %s hit the armed panic, want exactly 1", panics, appB.Info.Package)
	}
	// Every localization that ran was sampled and kept its explain trace.
	if got, want := storedTraces(d), len(apps)*perApp-panics; got != want {
		t.Errorf("%d traces stored, want %d (one per localized request)", got, want)
	}

	// Drop the client's pooled keep-alive connections (the server holds
	// speculatively dialed, never-used ones in StateNew, which Shutdown does
	// not reap for 5 s) so Close measures the daemon's drain, not the pool.
	http.DefaultClient.CloseIdleConnections()
	if err := d.Close(); err != nil {
		t.Fatalf("graceful shutdown after traffic: %v", err)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
