package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reviewsolver/internal/core"
	"reviewsolver/internal/obs"
	"reviewsolver/internal/serve/faultinject"
	"reviewsolver/internal/synth"
)

// This file is the deterministic fleet-observability scenario behind the
// fleetobs tests and the committed bench/BENCH_FLEETOBS.json golden:
// a daemon with the whole observability layer on (labeled metrics, tracing,
// journal, SLO) driven through every lifecycle transition — warm loads,
// concurrent traffic, an injected panic, a corrupt snapshot quarantining
// and re-probing, a transient load fault recovering, a hot swap,
// byte-budget eviction, and admission shedding — under an injectable
// clock, so the fleet digest and the journal event sequence are
// byte-identical across runs and worker counts.

// Fleet sim scenario constants.
const (
	fleetSimEpoch        = 1700000000 // fake-clock start (unix seconds)
	fleetSimReviews      = 6          // traffic-phase single-review requests per app
	fleetSimQueueDepth   = 4
	fleetSimShedProbes   = 3
	fleetSimAvailability = 0.9
	// fleetSimLatencyNs is an unreachable latency objective: latency enters
	// the digest only through slow counts, so pinning them to zero keeps the
	// digest a pure function of request outcomes.
	fleetSimLatencyNs = int64(1) << 50
)

// Synthetic registry entries layered on top of the two generated corpora:
// corrupt serves a truncated image (permanent quarantine), flaky fails its
// first load through fault injection and recovers on re-probe, clone loads
// a second copy of corpus A to overflow the byte budget.
const (
	fleetSimCorruptApp = "corrupt.fleet.app"
	fleetSimFlakyApp   = "flaky.fleet.app"
	fleetSimCloneApp   = "clone.fleet.app"
)

var errFleetSimFlaky = errors.New("fleetsim: injected transient load fault")

// fleetSimResult is everything the scenario produced.
type fleetSimResult struct {
	// Digest is the final fleet SLO digest; DigestJSON its byte-stable
	// encoding (the same bytes /v1/fleetstat would serve).
	Digest     *obs.FleetDigest
	DigestJSON []byte
	// Events is the full journal window (the scenario stays far under the
	// ring capacity, so nothing was dropped).
	Events []obs.Event
	// Metrics is the final registry snapshot (obs.Registry.Snapshot keys).
	Metrics map[string]float64
	// TracesStored is how many sampled explain traces the store retained.
	TracesStored int
	// AppA and AppB are the two generated corpora's package names.
	AppA, AppB string
}

// deterministicMetrics filters the snapshot down to the keys that are a
// pure function of the scenario: latency histograms keep only their request
// counts, float sums (CAS-order dependent in the last bits) are dropped,
// and so is the NLP front-end cache/interner telemetry (concurrent misses
// on a shared cache can double-compute). Both the golden and the
// worker-count invariance test compare exactly this subset.
func (r *fleetSimResult) deterministicMetrics() map[string]float64 {
	out := make(map[string]float64, len(r.Metrics))
	for k, v := range r.Metrics {
		if fleetObsDeterministicKey(k) {
			out[k] = v
		}
	}
	return out
}

// fleetObsDeterministicKey reports whether a snapshot key is deterministic
// for a fixed fleet-sim scenario regardless of worker count.
func fleetObsDeterministicKey(key string) bool {
	if strings.HasSuffix(key, "|sum") {
		return false
	}
	base := key
	if i := strings.IndexAny(base, "{|"); i >= 0 {
		base = base[:i]
	}
	if strings.HasSuffix(base, "_ns") && !strings.HasSuffix(key, "|count") {
		return false
	}
	switch base {
	case "analysis_cache_hits_total", "analysis_cache_misses_total",
		"phrase_cache_hits_total", "phrase_cache_misses_total",
		"interner_size", "analysis_cache_size", "spell_memo_size":
		return false
	}
	return true
}

// fleetClock is the scenario's injectable clock.
type fleetClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fleetClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fleetClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// samplePair generates two distinct app corpora from one seed — K-9 and the
// first Table 6 app — for the scenarios that need more than one package
// name in play.
func samplePair(seed int64) (*synth.AppData, *synth.AppData) {
	return synth.GenerateSample(seed), synth.GenerateTable6(seed)[0]
}

// runFleetSim drives the scenario with the given traffic concurrency
// (workers in [1, fleetSimQueueDepth]: the admission bound is sized so
// concurrent traffic never sheds) and returns the collected artifacts,
// failing t on any phase error. Everything in the result is a pure function
// of (seed), not of workers or scheduling — that invariance is what the
// fleetobs tests and the golden hold.
func runFleetSim(t *testing.T, seed int64, workers int) *fleetSimResult {
	t.Helper()
	if workers < 1 || workers > fleetSimQueueDepth {
		t.Fatalf("fleetsim: %d workers, want 1..%d (more would overflow the admission queue)", workers, fleetSimQueueDepth)
	}

	dataA, dataB := samplePair(seed)
	imgA, err := core.EncodeSnapshot(core.NewSnapshot(), dataA.App)
	if err != nil {
		t.Fatalf("fleetsim: encode A: %v", err)
	}
	imgB, err := core.EncodeSnapshot(core.NewSnapshot(), dataB.App)
	if err != nil {
		t.Fatalf("fleetsim: encode B: %v", err)
	}
	corrupt := append([]byte(nil), imgA...)
	corrupt[len(corrupt)-1] ^= 0xFF

	// Mirror the registry's own cost accounting (the image length) so the
	// byte budget lands exactly one eviction per budget overflow.
	sizeA, sizeB := int64(len(imgA)), int64(len(imgB))

	clk := &fleetClock{t: time.Unix(fleetSimEpoch, 0)}
	met := obs.NewRegistry()
	inj := faultinject.New()
	d := NewDaemon(Config{
		QueueDepth:     fleetSimQueueDepth,
		MaxConcurrent:  1,
		RequestTimeout: 60 * time.Second,
		// Fits A, B, and the flaky clone (A-sized) but is one byte short of
		// a fourth A-sized resident — each A-sized load past that point must
		// evict exactly one idle entry.
		MaxBytes:    3*sizeA + sizeB - 1,
		PoolWorkers: workers,
		LoadOptions: []core.Option{core.WithObserver(obs.NewRecorder(met, nil))},
		Injector:    inj,
		Metrics:     met,

		TraceSampleEvery: 1,
		TraceSeed:        seed,
		JournalCapacity:  256,
		SLO: &obs.SLOConfig{
			Window:             time.Minute,
			Buckets:            60,
			Availability:       fleetSimAvailability,
			LatencyObjectiveNs: fleetSimLatencyNs,
		},
		Clock: clk.Now,
	})
	defer d.Close()

	appA, appB := dataA.Info.Package, dataB.Info.Package
	registerImage(t, d.Registry(), appA, "v1", imgA)
	registerImage(t, d.Registry(), appB, "v1", imgB)

	localize := func(app, review, publishedAt string) (int, []byte) {
		body, _ := json.Marshal(LocalizeRequest{App: app, Review: review, PublishedAt: publishedAt})
		req := httptest.NewRequest("POST", "/v1/localize", bytes.NewReader(body))
		w := httptest.NewRecorder()
		d.mux.ServeHTTP(w, req)
		return w.Code, w.Body.Bytes()
	}
	expect := func(phase, app, review, at string, want int) error {
		if status, body := localize(app, review, at); status != want {
			return fmt.Errorf("fleetsim: %s: %s answered %d, want %d: %s", phase, app, status, want, body)
		}
		return nil
	}
	reviewOf := func(data *synth.AppData, i int) (string, string) {
		rv := data.Reviews[i%len(data.Reviews)]
		return rv.Text, rv.PublishedAt.Format(time.RFC3339)
	}
	rvA, atA := reviewOf(dataA, 0)
	rvB, atB := reviewOf(dataB, 0)

	// Phase 1 — warm loads. Journal so far: register A, register B; these
	// two requests add load A, load B.
	if err := expect("warm", appA, rvA, atA, http.StatusOK); err != nil {
		t.Fatal(err)
	}
	if err := expect("warm", appB, rvB, atB, http.StatusOK); err != nil {
		t.Fatal(err)
	}

	// Phase 2 — concurrent traffic: a fixed request list drained by
	// `workers` goroutines. Every outcome is 200 (MaxConcurrent 1 +
	// QueueDepth 4 admits up to 5 concurrent requests per app), so the
	// digest cannot see the interleaving.
	type trafficReq struct{ app, review, at string }
	var reqs []trafficReq
	for i := 0; i < fleetSimReviews; i++ {
		r, at := reviewOf(dataA, i)
		reqs = append(reqs, trafficReq{appA, r, at})
		r, at = reviewOf(dataB, i)
		reqs = append(reqs, trafficReq{appB, r, at})
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	workerErrs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				if err := expect("traffic", reqs[i].app, reqs[i].review, reqs[i].at, http.StatusOK); err != nil {
					workerErrs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range workerErrs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Phase 3 — injected panic on one appB request, contained as a 500:
	// one unit of appB's error budget.
	inj.Arm(faultinject.PointRequest, faultinject.Fault{Err: faultinject.ErrPanic, Count: 1, Key: appB})
	if err := expect("panic", appB, rvB, atB, http.StatusInternalServerError); err != nil {
		t.Fatal(err)
	}

	// Phase 4 — corrupt snapshot: the first probe fails the load and
	// quarantines (load_failure + quarantine_enter), a request inside the
	// backoff is rejected without touching the image (no journal event),
	// and the post-backoff probe fails again (re_probe + load_failure +
	// quarantine_enter).
	registerImage(t, d.Registry(), fleetSimCorruptApp, "v1", corrupt)
	if err := expect("corrupt probe", fleetSimCorruptApp, rvA, atA, http.StatusServiceUnavailable); err != nil {
		t.Fatal(err)
	}
	if err := expect("corrupt backoff reject", fleetSimCorruptApp, rvA, atA, http.StatusServiceUnavailable); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second)
	if err := expect("corrupt re-probe", fleetSimCorruptApp, rvA, atA, http.StatusServiceUnavailable); err != nil {
		t.Fatal(err)
	}

	// Phase 5 — flaky snapshot: a valid image whose first load fails
	// through an injected fault, then recovers on the post-backoff probe
	// (re_probe + quarantine_exit + load).
	registerImage(t, d.Registry(), fleetSimFlakyApp, "v1", imgA)
	inj.Arm(faultinject.PointSnapshotLoad, faultinject.Fault{Err: errFleetSimFlaky, Count: 1, Key: fleetSimFlakyApp + "@v1"})
	if err := expect("flaky probe", fleetSimFlakyApp, rvA, atA, http.StatusServiceUnavailable); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second)
	if err := expect("flaky recovery", fleetSimFlakyApp, rvA, atA, http.StatusOK); err != nil {
		t.Fatal(err)
	}

	// Phase 6 — sequential touches pin the LRU order (front to back:
	// B, flaky, A) so the evictions below are deterministic.
	if err := expect("touch", appA, rvA, atA, http.StatusOK); err != nil {
		t.Fatal(err)
	}
	if err := expect("touch", fleetSimFlakyApp, rvA, atA, http.StatusOK); err != nil {
		t.Fatal(err)
	}
	if err := expect("touch", appB, rvB, atB, http.StatusOK); err != nil {
		t.Fatal(err)
	}

	// Phase 7 — hot swap: re-registering appB@v1 retires the idle resident
	// entry (retire_freed + hot_swap) and the next request reloads it.
	registerImage(t, d.Registry(), appB, "v1", imgB)
	if err := expect("post-swap", appB, rvB, atB, http.StatusOK); err != nil {
		t.Fatal(err)
	}

	// Phase 8 — budget eviction: loading a second copy of corpus A pushes
	// the resident total one byte past the budget, evicting the LRU tail
	// (appA): register + evict + load.
	registerImage(t, d.Registry(), fleetSimCloneApp, "v1", imgA)
	if err := expect("clone", fleetSimCloneApp, rvA, atA, http.StatusOK); err != nil {
		t.Fatal(err)
	}

	// Phase 9 — admission shedding: one appA request blocks on an injected
	// gate while holding the single execution slot (its reload also evicts
	// the flaky entry), four more fill the waiting line, and three probes
	// shed with 429.
	gate := make(chan struct{})
	inj.Arm(faultinject.PointRequest, faultinject.Fault{Block: gate, Count: 1, Key: appA})
	shedErrs := make([]error, 1+fleetSimQueueDepth)
	var shedWG sync.WaitGroup
	shedWG.Add(1)
	go func() {
		defer shedWG.Done()
		shedErrs[0] = expect("blocked", appA, rvA, atA, http.StatusOK)
	}()
	if err := pollMetric(met, metricInflight, 1); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= fleetSimQueueDepth; i++ {
		shedWG.Add(1)
		go func(i int) {
			defer shedWG.Done()
			shedErrs[i] = expect("queued", appA, rvA, atA, http.StatusOK)
		}(i)
	}
	if err := pollMetric(met, metricQueueDepth, fleetSimQueueDepth); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fleetSimShedProbes; i++ {
		if err := expect("shed", appA, rvA, atA, http.StatusTooManyRequests); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	shedWG.Wait()
	for _, err := range shedErrs {
		if err != nil {
			t.Fatal(err)
		}
	}

	digest := d.slo.Digest()
	digestJSON, err := digest.JSON()
	if err != nil {
		t.Fatalf("fleetsim: encode digest: %v", err)
	}
	return &fleetSimResult{
		Digest:       digest,
		DigestJSON:   digestJSON,
		Events:       d.journal.Events(),
		Metrics:      met.Snapshot(),
		TracesStored: storedTraces(d),
		AppA:         appA,
		AppB:         appB,
	}
}

// storedTraces counts the explain traces d still holds by probing every
// trace ID its deterministic source has minted: one per request through the
// endpoint middleware. The daemon must have been built with a TraceSeed.
func storedTraces(d *Daemon) int {
	src := obs.NewTraceSource(d.cfg.TraceSeed, d.cfg.TraceSampleEvery)
	n := 0
	for i := d.met.Counter(metricRequests).Value(); i > 0; i-- {
		if _, ok := d.traces.Get(src.Next().ID); ok {
			n++
		}
	}
	return n
}

// pollMetric waits (real time) until a gauge reaches want — used only to
// sequence the shed phase's concurrency setup; request outcomes never
// depend on it.
func pollMetric(met *obs.Registry, name string, want float64) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if met.Snapshot()[name] == want {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("fleetsim: %s never reached %g (now %g)", name, want, met.Snapshot()[name])
}

// fleetSimEventSkeleton is the (type, app) sequence the scenario's journal
// must contain, in order — the registry lifecycle contract the fleetobs
// tests and the golden assert. Apps A and B are substituted from the result.
func fleetSimEventSkeleton(appA, appB string) [][2]string {
	return [][2]string{
		{string(obs.EventRegister), appA},
		{string(obs.EventRegister), appB},
		{string(obs.EventLoad), appA},
		{string(obs.EventLoad), appB},
		{string(obs.EventRegister), fleetSimCorruptApp},
		{string(obs.EventLoadFailure), fleetSimCorruptApp},
		{string(obs.EventQuarantineEnter), fleetSimCorruptApp},
		{string(obs.EventReprobe), fleetSimCorruptApp},
		{string(obs.EventLoadFailure), fleetSimCorruptApp},
		{string(obs.EventQuarantineEnter), fleetSimCorruptApp},
		{string(obs.EventRegister), fleetSimFlakyApp},
		{string(obs.EventLoadFailure), fleetSimFlakyApp},
		{string(obs.EventQuarantineEnter), fleetSimFlakyApp},
		{string(obs.EventReprobe), fleetSimFlakyApp},
		{string(obs.EventQuarantineExit), fleetSimFlakyApp},
		{string(obs.EventLoad), fleetSimFlakyApp},
		{string(obs.EventRetireFreed), appB},
		{string(obs.EventHotSwap), appB},
		{string(obs.EventLoad), appB},
		{string(obs.EventRegister), fleetSimCloneApp},
		{string(obs.EventEvict), appA},
		{string(obs.EventLoad), fleetSimCloneApp},
		{string(obs.EventEvict), fleetSimFlakyApp},
		{string(obs.EventLoad), appA},
	}
}
