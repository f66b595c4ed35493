package serve

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"reviewsolver/internal/obs"
)

// This file is the daemon's fleet-observability surface: per-app labeled
// request metrics, request-scoped trace propagation with the sampled-trace
// endpoint, the registry event journal endpoint, and the SLO/error-budget
// digest. Everything here is default-off (zero Config) and nil-safe, so a
// daemon without the layer configured serves exactly as before.

// Labeled metric names. The children live next to the plain aggregates in
// the same registry ("serve_requests_total" and
// "serve_requests_total{app=…,code=…,route=…}" coexist).
const (
	// metricRequestLatency is the per-app request latency histogram vector.
	metricRequestLatency = "serve_request_ns"
)

// reqInfo is the per-request mutable record the endpoint middleware shares
// with its handler: the handler fills in the app (once it has parsed the
// body), the middleware reads it back for labeling and SLO accounting.
type reqInfo struct {
	app  string
	span *obs.Span // root serving span; nil when tracing is off
}

type reqInfoKey struct{}

// requestInfo extracts the per-request record ctx carries, if any.
func requestInfo(ctx context.Context) *reqInfo {
	ri, _ := ctx.Value(reqInfoKey{}).(*reqInfo)
	return ri
}

// noteApp records the request's app identity for labeled metrics and SLO
// accounting (no-op outside the endpoint middleware).
func noteApp(ctx context.Context, app string) {
	if ri := requestInfo(ctx); ri != nil {
		ri.app = app
	}
}

// requestSpan returns the request's root serving span (nil when tracing is
// off); handlers derive stage children from it.
func requestSpan(ctx context.Context) *obs.Span {
	if ri := requestInfo(ctx); ri != nil {
		return ri.span
	}
	return nil
}

// statusWriter captures the response status for labeling. A handler that
// writes a body without WriteHeader implicitly answered 200.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// noteRequest folds one finished request into the labeled request counter,
// the per-app latency histogram, and the SLO tracker. App-less requests
// (classify, apps listing) label as "-" and skip SLO accounting.
func (d *Daemon) noteRequest(app, route string, status int, elapsed time.Duration) {
	if d.met != nil {
		la := app
		if la == "" {
			la = "-"
		}
		// Values in sorted label-name order: app, code, route.
		d.met.CounterVec(metricRequests, "app", "code", "route").
			With(la, strconv.Itoa(status), route).Add(1)
		if app != "" {
			d.met.HistogramVec(metricRequestLatency, obs.LatencyBucketsNs, "app").
				With(app).Observe(float64(elapsed.Nanoseconds()))
		}
	}
	if app != "" {
		d.slo.Observe(app, status >= 500, status == http.StatusTooManyRequests, elapsed.Nanoseconds())
	}
}

// --- observability endpoints -------------------------------------------------

// EventsResponse is the GET /v1/events body: the retained journal window
// (oldest first) plus lifetime totals that survive ring turnover.
type EventsResponse struct {
	Events  []obs.Event `json:"events"`
	Total   uint64      `json:"total"`
	Dropped uint64      `json:"dropped"`
}

// handleTrace serves the retained explain-trace artifact of a sampled
// request — the same ReviewTrace schema `reviewsolver -explain` writes.
func (d *Daemon) handleTrace(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	data, ok := d.traces.Get(id)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTrace, id)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, err := w.Write(data)
	return err
}

// handleEvents serves the registry lifecycle journal.
func (d *Daemon) handleEvents(w http.ResponseWriter, _ *http.Request) error {
	events := d.journal.Events()
	if events == nil {
		events = []obs.Event{}
	}
	total, _, _, dropped := d.journal.Stats()
	return writeJSON(w, http.StatusOK, EventsResponse{Events: events, Total: total, Dropped: dropped})
}

// handleFleetstat serves the deterministic fleet SLO digest.
func (d *Daemon) handleFleetstat(w http.ResponseWriter, _ *http.Request) error {
	data, err := d.slo.Digest().JSON()
	if err != nil {
		return fmt.Errorf("%w: encode fleet digest: %v", ErrInternal, err)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, werr := w.Write(data)
	return werr
}
