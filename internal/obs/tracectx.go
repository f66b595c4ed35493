package obs

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
)

// TraceContext is the request-scoped identity that rides a context.Context
// through the serving path: HTTP ingress → admission → registry lease →
// pool → kernel scan. The ID is deterministic — derived from a seeded
// per-daemon sequence, never wall clock — so a replayed request sequence
// produces the same IDs, and Sampled marks the requests whose full explain
// trace is retained for /v1/trace/<id>.
type TraceContext struct {
	// ID is the 16-hex-digit request trace ID.
	ID string
	// Sampled reports whether this request's explain trace is retained.
	Sampled bool
}

type traceCtxKey struct{}

// WithTraceContext attaches a trace context to ctx.
func WithTraceContext(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// TraceContextFrom extracts the trace context riding ctx, if any.
func TraceContextFrom(ctx context.Context) (TraceContext, bool) {
	if ctx == nil {
		return TraceContext{}, false
	}
	tc, ok := ctx.Value(traceCtxKey{}).(TraceContext)
	return tc, ok
}

// TraceSource mints trace contexts from a seeded sequence. IDs are a
// splitmix64 scramble of (seed, sequence) — they look random, collide with
// negligible probability, and replay identically for a fixed seed. Safe for
// concurrent use; nil is a valid source that mints unsampled zero IDs.
type TraceSource struct {
	seed  uint64
	every uint64 // sample every Nth request; 0 disables, 1 samples all
	seq   atomic.Uint64
}

// NewTraceSource builds a source. sampleEvery picks which requests retain
// their full explain trace: every Nth (the 1st, N+1st, …); 0 disables
// sampling; 1 samples every request.
func NewTraceSource(seed int64, sampleEvery int) *TraceSource {
	if sampleEvery < 0 {
		sampleEvery = 0
	}
	return &TraceSource{seed: uint64(seed), every: uint64(sampleEvery)}
}

// Next mints the next trace context in the sequence. Nil-safe.
func (ts *TraceSource) Next() TraceContext {
	if ts == nil {
		return TraceContext{}
	}
	n := ts.seq.Add(1)
	id := splitmix64(ts.seed + n*0x9e3779b97f4a7c15)
	sampled := ts.every == 1 || (ts.every > 1 && n%ts.every == 1)
	return TraceContext{ID: formatTraceID(id), Sampled: sampled}
}

// splitmix64 is the standard 64-bit finalizer — a bijection, so distinct
// sequence numbers always mint distinct IDs for a fixed seed.
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func formatTraceID(v uint64) string {
	s := strconv.FormatUint(v, 16)
	for len(s) < 16 {
		s = "0" + s
	}
	return s
}

// TraceStore is a bounded FIFO store of sampled explain-trace artifacts,
// keyed by trace ID. When full, storing a new trace evicts the oldest.
// Safe for concurrent use; nil is a valid store that holds nothing.
type TraceStore struct {
	mu   sync.Mutex
	cap  int
	fifo []string
	data map[string][]byte
}

// NewTraceStore builds a store holding at most cap traces (cap <= 0 gets a
// default of 256).
func NewTraceStore(cap int) *TraceStore {
	if cap <= 0 {
		cap = 256
	}
	return &TraceStore{cap: cap, data: make(map[string][]byte)}
}

// Put stores one trace artifact, evicting the oldest past capacity. Nil-safe.
func (s *TraceStore) Put(id string, artifact []byte) {
	if s == nil || id == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.data[id]; !ok {
		for len(s.fifo) >= s.cap {
			delete(s.data, s.fifo[0])
			s.fifo = s.fifo[1:]
		}
		s.fifo = append(s.fifo, id)
	}
	s.data[id] = artifact
}

// Get returns the stored artifact for a trace ID. Nil-safe.
func (s *TraceStore) Get(id string) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.data[id]
	return b, ok
}
