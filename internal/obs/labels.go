package obs

import (
	"sort"
	"strings"
	"sync"
)

// DefaultLabelCap bounds the number of distinct label-value combinations a
// metric vector tracks. Fleet metrics are labeled by app package, and a
// daemon can be asked about arbitrarily many apps — without a bound, a
// scrape-and-register loop (or an attacker probing made-up app names)
// would grow the registry without limit. Past the cap, new combinations
// collapse into one explicit overflow child whose every label value is
// OverflowLabel, so the total stays exact even when the breakdown saturates.
const DefaultLabelCap = 64

// OverflowLabel is the label value of the overflow child: the bucket that
// absorbs all label combinations past a vector's cardinality cap.
const OverflowLabel = "_overflow"

// labeledKey renders "name{k1="v1",k2="v2"}" with the label names in the
// vector's fixed (sorted) order — the exposition key of one vec child.
// Values are escaped Prometheus-style (backslash, quote, newline) so the
// rendered key parses unambiguously.
func labeledKey(name string, labels, values []string) string {
	var b strings.Builder
	b.Grow(len(name) + 16*len(labels))
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// vecCore is the shared child table of the three vector kinds: a bounded
// map from rendered label values to the child handle. The registry lock
// only guards vec creation; child lookup takes the vec's own lock.
type vecCore struct {
	name   string
	labels []string // sorted label names, fixed at creation
	cap    int

	mu       sync.Mutex
	children map[string]string // rendered key → "" (presence = within cap)
}

func newVecCore(name string, labels []string) vecCore {
	ls := append([]string(nil), labels...)
	sort.Strings(ls)
	return vecCore{
		name:     name,
		labels:   ls,
		cap:      DefaultLabelCap,
		children: make(map[string]string),
	}
}

// childKey resolves label values to the rendered child key, collapsing new
// combinations past the cardinality cap into the overflow child. A value
// count that does not match the label count also lands in the overflow
// child — telemetry never panics the serving path.
func (v *vecCore) childKey(values []string) string {
	if len(values) != len(v.labels) {
		return v.overflowKey()
	}
	key := labeledKey(v.name, v.labels, values)
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, ok := v.children[key]; ok {
		return key
	}
	if len(v.children) >= v.cap {
		return v.overflowKeyLocked()
	}
	v.children[key] = ""
	return key
}

func (v *vecCore) overflowKey() string {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.overflowKeyLocked()
}

func (v *vecCore) overflowKeyLocked() string {
	values := make([]string, len(v.labels))
	for i := range values {
		values[i] = OverflowLabel
	}
	key := labeledKey(v.name, v.labels, values)
	v.children[key] = "" // the overflow child itself never counts against the cap twice
	return key
}

// CounterVec is a family of counters sharing one name, keyed by label
// values ("requests_total{app="x",code="200"}"). Nil-safe: a nil vec vends
// nil (no-op) counters.
type CounterVec struct {
	vecCore
	reg *Registry
}

// With returns the child counter for the given label values (in the
// vector's sorted label-name order). Past the cardinality cap, the overflow
// child. Nil-safe.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.reg.Counter(v.childKey(values))
}

// HistogramVec is a family of histograms keyed by label values. Nil-safe.
type HistogramVec struct {
	vecCore
	buckets []float64
	reg     *Registry
}

// With returns the child histogram for the given label values. Nil-safe.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.reg.Histogram(v.childKey(values), v.buckets)
}

// CounterVec returns the named counter vector, creating it with the given
// label names on first use (label names are sorted; they are ignored on
// later calls, like Histogram buckets). Children live in the registry under
// their rendered "name{k="v"}" keys, so Snapshot and WriteText expose them
// with no extra plumbing. Nil-safe.
func (r *Registry) CounterVec(name string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.cvecs[name]
	if !ok {
		v = &CounterVec{vecCore: newVecCore(name, labels), reg: r}
		r.cvecs[name] = v
	}
	return v
}

// HistogramVec returns the named histogram vector, creating it with the
// given buckets and label names on first use. Nil-safe.
func (r *Registry) HistogramVec(name string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.hvecs[name]
	if !ok {
		v = &HistogramVec{vecCore: newVecCore(name, labels), buckets: append([]float64(nil), buckets...), reg: r}
		r.hvecs[name] = v
	}
	return v
}
