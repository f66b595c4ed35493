package obs

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// LatencyBucketsNs are the default latency histogram bounds: a 1-2.5-5
// ladder from 1µs to 10s, in nanoseconds. Observations above the last
// bound land in the implicit +Inf bucket.
var LatencyBucketsNs = []float64{
	1e3, 2.5e3, 5e3,
	1e4, 2.5e4, 5e4,
	1e5, 2.5e5, 5e5,
	1e6, 2.5e6, 5e6,
	1e7, 2.5e7, 5e7,
	1e8, 2.5e8, 5e8,
	1e9, 2.5e9, 5e9, 1e10,
}

// SimilarityBuckets cover the cosine-similarity range [0, 1] in 0.05
// steps. Match similarities are deterministic for a fixed model and
// corpus, so these bucket totals are gateable (cmd/benchgate's obs gate).
var SimilarityBuckets = []float64{
	0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50,
	0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 1.00,
}

// Registry is a goroutine-safe metrics registry. Metric handles are
// get-or-create by name; reads and writes on the handles are lock-free
// (atomics), the registry lock only guards the name maps.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	// Label vectors (labels.go). A vec's children are ordinary metrics in
	// the maps above under their rendered "name{k="v"}" keys, so Snapshot
	// and WriteText expose labeled metrics with no extra machinery.
	cvecs map[string]*CounterVec
	hvecs map[string]*HistogramVec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		cvecs:    make(map[string]*CounterVec),
		hvecs:    make(map[string]*HistogramVec),
	}
}

// Counter returns the named counter, creating it on first use. Nil-safe.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use (bounds must be ascending; they are ignored on
// later calls). Nil-safe.
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(buckets)
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter. Nil-safe.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down (queue depth, busy workers).
type Gauge struct{ v atomic.Int64 }

// Add moves the gauge by n. Nil-safe.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Set pins the gauge to n. Nil-safe.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Value returns the current level (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets. Observation is
// lock-free: one atomic add into the bucket, one into the count, and a
// CAS loop for the float sum.
type Histogram struct {
	bounds []float64      // ascending upper bounds; +Inf is implicit
	counts []atomic.Int64 // len(bounds)+1, last is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Buckets returns the bucket upper bounds and the per-bucket (non
// cumulative) counts; the final count is the +Inf bucket.
func (h *Histogram) Buckets() (bounds []float64, counts []int64) {
	if h == nil {
		return nil, nil
	}
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return h.bounds, counts
}

// Quantile estimates the p-quantile (0 ≤ p ≤ 1) by linear interpolation
// inside the bucket holding the target rank. Returns 0 with no
// observations; values in the +Inf bucket report the last finite bound.
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := p * float64(total)
	var seen float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if n == 0 {
			continue
		}
		if seen+n < rank {
			seen += n
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		if i >= len(h.bounds) { // +Inf bucket: no finite width to interpolate
			return h.bounds[len(h.bounds)-1]
		}
		hi := h.bounds[i]
		frac := (rank - seen) / n
		if frac < 0 {
			frac = 0
		} else if frac > 1 {
			frac = 1
		}
		return lo + (hi-lo)*frac
	}
	return h.bounds[len(h.bounds)-1]
}

// Snapshot flattens every metric into a name → value map: counters and
// gauges under their own names, histograms as "<name>|count", "<name>|sum"
// and one "<name>|le|<bound>" entry per bucket ("+Inf" for the overflow
// bucket). Keys are stable, so the map is directly gateable. Nil-safe.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		out[name] = float64(c.Value())
	}
	for name, g := range r.gauges {
		out[name] = float64(g.Value())
	}
	for name, h := range r.hists {
		out[name+"|count"] = float64(h.Count())
		out[name+"|sum"] = h.Sum()
		bounds, counts := h.Buckets()
		for i, n := range counts {
			label := "+Inf"
			if i < len(bounds) {
				label = formatBound(bounds[i])
			}
			out[name+"|le|"+label] = float64(n)
		}
	}
	return out
}

// WriteText writes a deterministic plain-text exposition of the registry:
// one "TYPE name value" line per metric, sorted by name. Nil-safe.
func (r *Registry) WriteText(w io.Writer) error {
	snap := r.Snapshot()
	types := make(map[string]string, len(snap))
	if r != nil {
		r.mu.Lock()
		for name := range r.counters {
			types[name] = "counter"
		}
		for name := range r.gauges {
			types[name] = "gauge"
		}
		r.mu.Unlock()
	}
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		typ, ok := types[k]
		if !ok {
			typ = "hist"
		}
		if _, err := fmt.Fprintf(w, "%s %s %s\n", typ, k, formatBound(snap[k])); err != nil {
			return err
		}
	}
	return nil
}

// formatBound renders a float without trailing-zero noise ("2500" not
// "2500.000000"), keeping text exposition and snapshot keys stable.
func formatBound(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// --- expvar ------------------------------------------------------------------

var (
	expvarOnce sync.Once
	expvarReg  atomic.Pointer[Registry]
)

// PublishExpvar exposes the registry under the expvar name "reviewsolver"
// (one JSON object mapping metric keys to values at /debug/vars). expvar
// forbids republishing a name, so the binding is installed once and later
// calls atomically swap which registry it reads — safe across tests and
// server restarts. Nil-safe.
func (r *Registry) PublishExpvar() {
	if r == nil {
		return
	}
	expvarReg.Store(r)
	expvarOnce.Do(func() {
		expvar.Publish("reviewsolver", expvar.Func(func() any {
			return expvarReg.Load().Snapshot()
		}))
	})
}
