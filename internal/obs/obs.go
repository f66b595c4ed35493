// Package obs is ReviewSolver's pipeline-wide telemetry layer: a
// goroutine-safe metrics registry (counters, gauges, fixed-bucket
// histograms) with expvar and text exposition, lightweight span tracing
// emitted as structured log/slog events, and the per-review explain-trace
// artifact that records why a review mapped to each recommended class.
//
// Everything is stdlib-only and default-off: a nil *Recorder (and every
// handle it vends — nil *Counter, *Gauge, *Histogram, *Span) is a valid
// no-op, so the kernel hot path pays only a nil check when telemetry is
// disabled.
package obs

import (
	"context"
	"log/slog"
	"time"
)

// Recorder is the pipeline telemetry sink: a metrics registry plus an
// optional slog logger for span events. All methods are safe on a nil
// receiver (they record nothing) and safe for concurrent use otherwise.
type Recorder struct {
	reg    *Registry
	logger *slog.Logger
}

// NewRecorder builds a recorder over a registry. logger may be nil: spans
// then feed the registry (stage counters and latency histograms) without
// emitting log events. A nil reg gets a fresh private registry.
func NewRecorder(reg *Registry, logger *slog.Logger) *Recorder {
	if reg == nil {
		reg = NewRegistry()
	}
	return &Recorder{reg: reg, logger: logger}
}

// Registry returns the underlying metrics registry (nil for a nil recorder).
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// Counter vends the named counter (nil for a nil recorder).
func (r *Recorder) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return r.reg.Counter(name)
}

// Gauge vends the named gauge (nil for a nil recorder).
func (r *Recorder) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return r.reg.Gauge(name)
}

// Histogram vends the named histogram (nil for a nil recorder). buckets is
// used only on first creation.
func (r *Recorder) Histogram(name string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.reg.Histogram(name, buckets)
}

// Start opens a root span for a pipeline stage. Returns nil (a no-op span)
// on a nil recorder.
func (r *Recorder) Start(stage string) *Span {
	if r == nil {
		return nil
	}
	return &Span{rec: r, stage: stage, start: time.Now()}
}

// StartCtx is Start plus trace propagation: if ctx carries a TraceContext
// (see WithTraceContext), the span — and every child derived from it —
// logs the request's trace ID, so the span tree of one request is
// reassemblable across the whole serving path. Nil-safe.
func (r *Recorder) StartCtx(ctx context.Context, stage string) *Span {
	if r == nil {
		return nil
	}
	sp := &Span{rec: r, stage: stage, start: time.Now()}
	if tc, ok := TraceContextFrom(ctx); ok {
		sp.trace = tc.ID
	}
	return sp
}

// Span is one timed pipeline stage. The duration uses the monotonic clock
// (time.Since); parent/child structure is carried as the parent stage name
// so the emitted events form a deterministic tree for a fixed pipeline.
type Span struct {
	rec    *Recorder
	stage  string
	parent string
	trace  string // request trace ID; "" outside a traced request
	start  time.Time
}

// Child opens a sub-span under this span, inheriting its trace ID.
// Nil-safe: a nil span returns a nil (no-op) child.
func (sp *Span) Child(stage string) *Span {
	if sp == nil {
		return nil
	}
	return &Span{rec: sp.rec, stage: stage, parent: sp.stage, trace: sp.trace, start: time.Now()}
}

// End closes the span: it bumps the stage call counter, observes the
// monotonic duration into the stage latency histogram
// ("stage_<stage>_ns"), and — when the recorder has a logger — emits one
// structured "span" event with a fixed attribute order (stage, parent,
// ns). It returns the measured duration. Nil-safe.
func (sp *Span) End() time.Duration {
	if sp == nil {
		return 0
	}
	d := time.Since(sp.start)
	sp.rec.Counter("stage_" + sp.stage + "_calls_total").Add(1)
	sp.rec.Histogram("stage_"+sp.stage+"_ns", LatencyBucketsNs).Observe(float64(d.Nanoseconds()))
	if sp.rec.logger != nil {
		attrs := make([]slog.Attr, 0, 4)
		attrs = append(attrs,
			slog.String("stage", sp.stage),
			slog.String("parent", sp.parent))
		if sp.trace != "" {
			attrs = append(attrs, slog.String("trace", sp.trace))
		}
		attrs = append(attrs, slog.Int64("ns", d.Nanoseconds()))
		sp.rec.logger.LogAttrs(context.Background(), slog.LevelInfo, "span", attrs...)
	}
	return d
}
