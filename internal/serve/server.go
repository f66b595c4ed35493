package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"reviewsolver/internal/apk"
	"reviewsolver/internal/core"
	"reviewsolver/internal/obs"
	"reviewsolver/internal/serve/faultinject"
)

// Server metric names (the registry adds its own, see registry.go).
const (
	metricRequests   = "serve_requests_total"
	metricReviews    = "serve_reviews_served_total"
	metricShed       = "serve_shed_total"
	metricDeadlines  = "serve_deadline_total"
	metricPanics     = "serve_panics_total"
	metricErrors     = "serve_errors_total"
	metricQueueDepth = "serve_queue_depth"
	metricInflight   = "serve_inflight"
)

// shedRetryAfter is the client backoff hint attached to 429 responses.
const shedRetryAfter = time.Second

// Config configures a Daemon. Zero values get serving defaults.
type Config struct {
	// QueueDepth is the per-app admission bound: how many requests may
	// wait for an execution slot before new arrivals are shed with 429.
	// Default 64.
	QueueDepth int
	// MaxConcurrent is the per-app execution bound. Default NumCPU.
	MaxConcurrent int
	// RequestTimeout is the per-request deadline propagated through the
	// whole pipeline via context. Default 10s; negative disables.
	RequestTimeout time.Duration
	// DrainTimeout bounds graceful shutdown (Close). Default 5s.
	DrainTimeout time.Duration
	// MaxBytes is the registry's resident byte budget (0 = unlimited).
	MaxBytes int64
	// PoolWorkers sizes per-snapshot batch pools (core.NewPool convention).
	PoolWorkers int
	// LoadOptions apply to every snapshot load (classifier, observer).
	LoadOptions []core.Option
	// Classify is the daemon-level review classifier behind /v1/classify;
	// nil makes the endpoint report every review as a function error (the
	// no-classifier convention of core.Solver).
	Classify func(text string) bool
	// Injector is the fault-injection harness; nil injects nothing.
	Injector *faultinject.Injector
	// Metrics receives all serving metrics; nil disables them.
	Metrics *obs.Registry

	// TraceSampleEvery enables request tracing: every request gets a
	// deterministic trace ID (X-Trace-Id header, span propagation), and
	// every Nth request's full explain trace is retained for
	// /v1/trace/<id>. 0 (the default) disables tracing entirely.
	TraceSampleEvery int
	// TraceSeed seeds the deterministic trace-ID sequence. Default 1.
	TraceSeed int64
	// TraceCapacity bounds the retained sampled traces. Default 256.
	TraceCapacity int
	// JournalCapacity enables the registry lifecycle event journal
	// (/v1/events) with a ring of that many records. 0 disables it.
	JournalCapacity int
	// SLO enables rolling-window per-app SLO/error-budget tracking
	// (/v1/fleetstat). Nil disables it; the config's Now defaults to Clock.
	SLO *obs.SLOConfig
	// Clock is the injectable time source for journal timestamps,
	// quarantine backoff, and SLO windows; nil means time.Now.
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = runtime.NumCPU()
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.RequestTimeout < 0 {
		c.RequestTimeout = 0
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 5 * time.Second
	}
	return c
}

// Daemon is the reviewd serving core: the snapshot registry plus the HTTP
// surface with admission control, deadlines, panic containment, and
// graceful shutdown. Build one with NewDaemon, Start a listener, and stop
// with Close.
type Daemon struct {
	cfg Config
	reg *Registry
	met *obs.Registry
	inj *faultinject.Injector

	// Fleet observability (all nil when off — every use is nil-safe).
	rec     *obs.Recorder
	tsrc    *obs.TraceSource
	traces  *obs.TraceStore
	journal *obs.Journal
	slo     *obs.SLOTracker

	mux      *http.ServeMux
	srv      *http.Server
	ln       net.Listener
	draining atomic.Bool

	qmu    sync.Mutex
	queues map[string]*appQueue
}

// appQueue is one app's admission state: a CAS-bounded waiting count and a
// semaphore of execution slots.
type appQueue struct {
	waiting atomic.Int64
	slots   chan struct{}
}

// NewDaemon builds a daemon (registry included) from the config.
func NewDaemon(cfg Config) *Daemon {
	cfg = cfg.withDefaults()
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	d := &Daemon{
		cfg:    cfg,
		met:    cfg.Metrics,
		inj:    cfg.Injector,
		queues: make(map[string]*appQueue),
	}
	if cfg.Metrics != nil {
		d.rec = obs.NewRecorder(cfg.Metrics, nil)
	}
	if cfg.JournalCapacity > 0 {
		d.journal = obs.NewJournal(cfg.JournalCapacity, cfg.Metrics)
	}
	if cfg.TraceSampleEvery > 0 {
		seed := cfg.TraceSeed
		if seed == 0 {
			seed = 1
		}
		d.tsrc = obs.NewTraceSource(seed, cfg.TraceSampleEvery)
		d.traces = obs.NewTraceStore(cfg.TraceCapacity)
	}
	if cfg.SLO != nil {
		sc := *cfg.SLO
		if sc.Now == nil {
			sc.Now = clock
		}
		d.slo = obs.NewSLOTracker(sc)
	}
	d.reg = NewRegistry(RegistryConfig{
		MaxBytes:    cfg.MaxBytes,
		PoolWorkers: cfg.PoolWorkers,
		LoadOptions: cfg.LoadOptions,
		Injector:    cfg.Injector,
		Metrics:     cfg.Metrics,
		Journal:     d.journal,
		Clock:       cfg.Clock,
	})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/localize", d.endpoint("localize", "/v1/localize", d.handleLocalize))
	mux.HandleFunc("POST /v1/classify", d.endpoint("classify", "/v1/classify", d.handleClassify))
	mux.HandleFunc("GET /v1/apps", d.endpoint("apps", "/v1/apps", d.handleApps))
	mux.HandleFunc("POST /v1/apps", d.endpoint("register", "/v1/apps", d.handleRegister))
	mux.HandleFunc("GET /v1/trace/{id}", d.endpoint("trace", "/v1/trace/{id}", d.handleTrace))
	mux.HandleFunc("GET /v1/events", d.endpoint("events", "/v1/events", d.handleEvents))
	mux.HandleFunc("GET /v1/fleetstat", d.endpoint("fleetstat", "/v1/fleetstat", d.handleFleetstat))
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = d.met.WriteText(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	d.mux = mux
	return d
}

// Registry exposes the daemon's snapshot registry (registration at boot,
// test orchestration).
func (d *Daemon) Registry() *Registry { return d.reg }

// Start binds addr (":0" picks a free port) and serves in the background.
func (d *Daemon) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	d.ln = ln
	d.srv = &http.Server{Handler: d.mux}
	go func() { _ = d.srv.Serve(ln) }()
	return nil
}

// Addr returns the bound address (after Start).
func (d *Daemon) Addr() string { return d.ln.Addr().String() }

// Close drains gracefully under the configured DrainTimeout: new requests
// are refused with 503 and in-flight requests finish. If the drain deadline
// passes it closes abruptly (same policy as the obs debug server).
func (d *Daemon) Close() error {
	d.draining.Store(true)
	if d.srv == nil {
		return nil
	}
	return obs.ShutdownHTTP(d.srv, d.cfg.DrainTimeout)
}

// --- middleware ------------------------------------------------------------------

// endpoint wraps a handler with the serving spine: drain refusal, request
// counting (aggregate and per-app labeled), trace-context minting, the
// per-request deadline, per-endpoint latency histograms, SLO accounting,
// and panic containment (a panicking request answers 500 and increments a
// counter; the daemon never dies).
func (d *Daemon) endpoint(name, route string, h func(http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	hist := "serve_http_" + name + "_ns"
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		d.met.Counter(metricRequests).Add(1)
		ri := &reqInfo{}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		ctx := r.Context()
		if d.tsrc != nil {
			tc := d.tsrc.Next()
			ctx = obs.WithTraceContext(ctx, tc)
			sw.Header().Set("X-Trace-Id", tc.ID)
			ri.span = d.rec.StartCtx(ctx, "serve_"+name)
		}
		defer func() {
			if p := recover(); p != nil {
				d.met.Counter(metricPanics).Add(1)
				d.writeError(sw, fmt.Errorf("%w: recovered panic: %v", ErrInternal, p))
			}
			elapsed := time.Since(start)
			d.met.Histogram(hist, obs.LatencyBucketsNs).Observe(float64(elapsed.Nanoseconds()))
			ri.span.End()
			d.noteRequest(ri.app, route, sw.status, elapsed)
		}()
		if d.draining.Load() {
			d.writeError(sw, ErrShutdown)
			return
		}
		if d.cfg.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, d.cfg.RequestTimeout)
			defer cancel()
		}
		ctx = context.WithValue(ctx, reqInfoKey{}, ri)
		if err := h(sw, r.WithContext(ctx)); err != nil {
			d.writeError(sw, err)
		}
	}
}

// admit applies the app's admission policy: shed immediately with 429 when
// the waiting line is full, otherwise wait for an execution slot or the
// request deadline. The returned release function frees the slot.
func (d *Daemon) admit(ctx context.Context, app string) (release func(), err error) {
	q := d.queueFor(app)
	depth := int64(d.cfg.QueueDepth)
	for {
		w := q.waiting.Load()
		if w >= depth {
			d.met.Counter(metricShed).Add(1)
			d.met.CounterVec(metricShed, "app").With(app).Add(1)
			return nil, &RetryAfterError{
				Err:   fmt.Errorf("%w: %d requests already queued for %s", ErrQueueFull, w, app),
				After: shedRetryAfter,
			}
		}
		if q.waiting.CompareAndSwap(w, w+1) {
			break
		}
	}
	d.met.Gauge(metricQueueDepth).Add(1)
	leaveQueue := func() {
		q.waiting.Add(-1)
		d.met.Gauge(metricQueueDepth).Add(-1)
	}
	select {
	case q.slots <- struct{}{}:
		leaveQueue()
		d.met.Gauge(metricInflight).Add(1)
		return func() {
			<-q.slots
			d.met.Gauge(metricInflight).Add(-1)
		}, nil
	case <-ctx.Done():
		leaveQueue()
		return nil, fmt.Errorf("%w: while queued for %s: %w", ErrDeadline, app, ctx.Err())
	}
}

func (d *Daemon) queueFor(app string) *appQueue {
	d.qmu.Lock()
	defer d.qmu.Unlock()
	q := d.queues[app]
	if q == nil {
		q = &appQueue{slots: make(chan struct{}, d.cfg.MaxConcurrent)}
		d.queues[app] = q
	}
	return q
}

// --- request/response schema ------------------------------------------------------

// LocalizeRequest is the /v1/localize body: one review (Review) or a batch
// (Reviews), against app (+ optional version; empty serves the most
// recently registered).
type LocalizeRequest struct {
	App         string        `json:"app"`
	Version     string        `json:"version,omitempty"`
	Review      string        `json:"review,omitempty"`
	PublishedAt string        `json:"published_at,omitempty"`
	Reviews     []BatchReview `json:"reviews,omitempty"`
}

// BatchReview is one review of a batch localize request.
type BatchReview struct {
	Review      string `json:"review"`
	PublishedAt string `json:"published_at,omitempty"`
}

// RankedClass is one recommended class of a localization.
type RankedClass struct {
	Rank         int      `json:"rank"`
	Class        string   `json:"class"`
	Importance   int      `json:"importance"`
	Dependencies int      `json:"dependencies"`
	Methods      []string `json:"methods,omitempty"`
	Contexts     []string `json:"contexts,omitempty"`
}

// LocalizeResult is the localization of one review.
type LocalizeResult struct {
	Review      string        `json:"review"`
	IsError     bool          `json:"is_error"`
	Release     string        `json:"release,omitempty"`
	Localized   bool          `json:"localized"`
	VerbPhrases []string      `json:"verb_phrases,omitempty"`
	Quoted      []string      `json:"quoted,omitempty"`
	Ranked      []RankedClass `json:"ranked,omitempty"`
}

// LocalizeResponse is the /v1/localize body: results in request order.
type LocalizeResponse struct {
	App     string           `json:"app"`
	Version string           `json:"version"`
	Results []LocalizeResult `json:"results"`
}

// ClassifyRequest is the /v1/classify body.
type ClassifyRequest struct {
	Review string `json:"review"`
}

// ClassifyResponse is the /v1/classify answer.
type ClassifyResponse struct {
	Review  string `json:"review"`
	IsError bool   `json:"is_error"`
}

// RegisterRequest is the POST /v1/apps body.
type RegisterRequest struct {
	App     string `json:"app"`
	Version string `json:"version"`
	Path    string `json:"path"`
}

// AppsResponse is the GET /v1/apps body.
type AppsResponse struct {
	Apps          []AppStatus `json:"apps"`
	ResidentBytes int64       `json:"resident_bytes"`
}

// ErrorBody is the JSON shape of every non-2xx answer.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail carries the machine-readable kind (see KindFor) next to the
// human-readable message.
type ErrorDetail struct {
	Kind         string `json:"kind"`
	Message      string `json:"message"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
}

// ResultToJSON converts one pipeline result into its response form. Shared
// by the handler and the smoke/bench harnesses so "served response equals
// locally computed response" can be checked byte for byte.
func ResultToJSON(review string, res *core.Result) LocalizeResult {
	out := LocalizeResult{
		Review:    review,
		IsError:   res.IsError,
		Localized: res.Localized(),
	}
	if res.Release != nil {
		out.Release = res.Release.Version
	}
	if res.Analysis != nil {
		for _, vp := range res.Analysis.VerbPhrases {
			out.VerbPhrases = append(out.VerbPhrases, vp.String())
		}
		out.Quoted = append(out.Quoted, res.Analysis.Quoted...)
	}
	for i, rc := range res.Ranked {
		out.Ranked = append(out.Ranked, RankedClass{
			Rank:         i + 1,
			Class:        rc.Class,
			Importance:   rc.Importance,
			Dependencies: rc.Dependencies,
			Methods:      rc.Methods,
			Contexts:     rc.Contexts,
		})
	}
	return out
}

// --- handlers --------------------------------------------------------------------

func (d *Daemon) handleLocalize(w http.ResponseWriter, r *http.Request) error {
	ctx := r.Context()
	var req LocalizeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if req.App == "" {
		return fmt.Errorf("%w: missing app", ErrBadRequest)
	}
	single := req.Review != ""
	if !single && len(req.Reviews) == 0 {
		return fmt.Errorf("%w: provide review or reviews", ErrBadRequest)
	}
	if single && len(req.Reviews) > 0 {
		return fmt.Errorf("%w: review and reviews are mutually exclusive", ErrBadRequest)
	}
	noteApp(ctx, req.App)
	span := requestSpan(ctx)

	as := span.Child("serve_admit")
	release, err := d.admit(ctx, req.App)
	as.End()
	if err != nil {
		return err
	}
	defer release()

	ls := span.Child("serve_lease")
	lease, err := d.reg.Acquire(ctx, req.App, req.Version)
	ls.End()
	if err != nil {
		return err
	}
	defer lease.Release()

	if err := d.fireRequestFault(ctx, req.App); err != nil {
		return err
	}

	resp := LocalizeResponse{App: req.App, Version: lease.Version}
	if single {
		when, err := parseWhen(req.PublishedAt, lease.App)
		if err != nil {
			return err
		}
		lz := span.Child("serve_localize")
		var res *core.Result
		if tc, _ := obs.TraceContextFrom(ctx); tc.Sampled {
			// Sampled request: retain the full explain trace under the
			// request's trace ID for /v1/trace/<id> — the same ReviewTrace
			// artifact `reviewsolver -explain` writes.
			var tr *obs.ReviewTrace
			res, tr = lease.Solver.LocalizeReviewTraced(lease.App, req.Review, when)
			if data, jerr := tr.JSON(); jerr == nil {
				d.traces.Put(tc.ID, data)
			}
		} else {
			res = lease.Solver.LocalizeReview(lease.App, req.Review, when)
		}
		lz.End()
		resp.Results = append(resp.Results, ResultToJSON(req.Review, res))
		d.met.Counter(metricReviews).Add(1)
		return writeJSON(w, http.StatusOK, resp)
	}

	// Batch: stream through the pool's cancellable corpus path, so the
	// request deadline propagates into the workers.
	inputs := make([]core.ReviewInput, len(req.Reviews))
	for i, br := range req.Reviews {
		when, err := parseWhen(br.PublishedAt, lease.App)
		if err != nil {
			return err
		}
		inputs[i] = core.ReviewInput{Text: br.Review, PublishedAt: when}
	}
	in := make(chan core.ReviewInput, len(inputs))
	for _, ri := range inputs {
		in <- ri
	}
	close(in)
	lz := span.Child("serve_localize_batch")
	defer lz.End()
	got := 0
	for cr := range lease.Pool.LocalizeCorpusContext(ctx, lease.App, in) {
		resp.Results = append(resp.Results, ResultToJSON(inputs[cr.Index].Text, cr.Result))
		got++
	}
	if got != len(inputs) {
		return fmt.Errorf("%w: batch cancelled after %d/%d reviews: %w", ErrDeadline, got, len(inputs), ctx.Err())
	}
	d.met.Counter(metricReviews).Add(int64(got))
	return writeJSON(w, http.StatusOK, resp)
}

func (d *Daemon) handleClassify(w http.ResponseWriter, r *http.Request) error {
	var req ClassifyRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if req.Review == "" {
		return fmt.Errorf("%w: missing review", ErrBadRequest)
	}
	isErr := true
	if d.cfg.Classify != nil {
		isErr = d.cfg.Classify(req.Review)
	}
	return writeJSON(w, http.StatusOK, ClassifyResponse{Review: req.Review, IsError: isErr})
}

func (d *Daemon) handleApps(w http.ResponseWriter, _ *http.Request) error {
	return writeJSON(w, http.StatusOK, AppsResponse{
		Apps:          d.reg.Apps(),
		ResidentBytes: d.reg.ResidentBytes(),
	})
}

func (d *Daemon) handleRegister(w http.ResponseWriter, r *http.Request) error {
	var req RegisterRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if req.App == "" || req.Version == "" || req.Path == "" {
		return fmt.Errorf("%w: app, version, and path are all required", ErrBadRequest)
	}
	d.reg.Register(req.App, req.Version, req.Path)
	return writeJSON(w, http.StatusOK, map[string]string{"status": "registered", "app": req.App, "version": req.Version})
}

// fireRequestFault runs the request-point fault injection while the
// request holds its execution slot: blocked faults model long requests
// (saturation scenarios), cancelled blocks model clients walking away
// mid-request.
func (d *Daemon) fireRequestFault(ctx context.Context, app string) error {
	err := d.inj.Fire(ctx, faultinject.PointRequest, app)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, faultinject.ErrPanic):
		panic(err) // contained by the endpoint middleware; chaos tests assert the 500
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: mid-request: %w", ErrDeadline, err)
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrQuarantined), errors.Is(err, ErrSnapshotLoad):
		return err
	default:
		return fmt.Errorf("%w: injected fault: %w", ErrInternal, err)
	}
}

// parseWhen resolves a review publication time: RFC 3339 when given, the
// day after the app's latest release otherwise (the reviewsolver default).
func parseWhen(s string, app *apk.App) (time.Time, error) {
	if s == "" {
		return app.Latest().ReleasedAt.AddDate(0, 0, 1), nil
	}
	t, err := time.Parse(time.RFC3339, s)
	if err != nil {
		return time.Time{}, fmt.Errorf("%w: published_at: %v", ErrBadRequest, err)
	}
	return t, nil
}

// writeJSON writes v as a compact JSON body with a trailing newline — the
// exact bytes json.Marshal produces, so harnesses can diff responses
// byte-for-byte against locally encoded expectations.
func writeJSON(w http.ResponseWriter, status int, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("%w: encode response: %v", ErrInternal, err)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, werr := w.Write(append(data, '\n'))
	return werr
}

// writeError renders a typed serving error: its mapped status, its stable
// kind, and a Retry-After header when the error carries a backoff hint.
// Every 504 passes through here, whichever layer ran out of time (admission
// wait, snapshot load, mid-request, batch), so this is the one place that
// counts serve_deadline_total.
func (d *Daemon) writeError(w http.ResponseWriter, err error) {
	d.met.Counter(metricErrors).Add(1)
	detail := ErrorDetail{Kind: KindFor(err), Message: err.Error()}
	if detail.Kind == "deadline" {
		d.met.Counter(metricDeadlines).Add(1)
	}
	if after, ok := RetryAfterHint(err); ok {
		secs := int64((after + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
		detail.RetryAfterMs = after.Milliseconds()
	}
	data, merr := json.Marshal(ErrorBody{Error: detail})
	if merr != nil {
		http.Error(w, err.Error(), StatusFor(err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(StatusFor(err))
	_, _ = w.Write(append(data, '\n'))
}
