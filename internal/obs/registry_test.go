package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestNilSafety: every handle the package vends must be a valid no-op on
// nil, because the pipeline's default configuration passes nil everywhere.
func TestNilSafety(t *testing.T) {
	var rec *Recorder
	rec.Counter("c").Add(1)
	rec.Gauge("g").Set(2)
	rec.Histogram("h", SimilarityBuckets).Observe(0.5)
	sp := rec.Start("stage")
	sp.Child("child").End()
	if d := sp.End(); d != 0 {
		t.Errorf("nil span End() = %v, want 0", d)
	}
	if rec.Registry() != nil {
		t.Error("nil recorder vended a registry")
	}

	var reg *Registry
	reg.Counter("c").Add(1)
	if got := reg.Counter("c").Value(); got != 0 {
		t.Errorf("nil registry counter = %d, want 0", got)
	}
	if snap := reg.Snapshot(); len(snap) != 0 {
		t.Errorf("nil registry snapshot has %d entries", len(snap))
	}
	reg.PublishExpvar()

	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Error("nil histogram is not a zero no-op")
	}

	var tr *ReviewTrace
	tr.AddStage("s", "", 0)
	tr.AddMatch(MatchTrace{})
	tr.AddScan(ScanTrace{})
	if tr.MatchesFor("x") != nil {
		t.Error("nil trace MatchesFor returned entries")
	}
}

// TestRegistryConcurrency hammers one registry from many goroutines; run
// under -race it is the data-race gate for the whole metrics layer.
func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	const goroutines = 16
	const iters = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				reg.Counter("shared_total").Add(1)
				reg.Gauge("level").Add(1)
				reg.Gauge("level").Add(-1)
				reg.Histogram("h", SimilarityBuckets).Observe(float64(i%21) * 0.05)
				if i%100 == 0 {
					reg.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := reg.Counter("shared_total").Value(); got != goroutines*iters {
		t.Errorf("shared_total = %d, want %d", got, goroutines*iters)
	}
	if got := reg.Gauge("level").Value(); got != 0 {
		t.Errorf("level gauge = %d, want 0", got)
	}
	if got := reg.Histogram("h", nil).Count(); got != goroutines*iters {
		t.Errorf("histogram count = %d, want %d", got, goroutines*iters)
	}
}

// TestHistogramBucketsGolden pins the bucket assignment rule: an
// observation lands in the first bucket whose upper bound is >= the value,
// and values above every bound land in +Inf.
func TestHistogramBucketsGolden(t *testing.T) {
	h := newHistogram([]float64{1, 2, 5})
	for _, v := range []float64{0, 0.5, 1} { // -> bucket le=1
		h.Observe(v)
	}
	h.Observe(1.5) // -> le=2
	h.Observe(5)   // -> le=5
	h.Observe(9)   // -> +Inf

	bounds, counts := h.Buckets()
	wantBounds := []float64{1, 2, 5}
	wantCounts := []int64{3, 1, 1, 1}
	for i := range wantBounds {
		if bounds[i] != wantBounds[i] {
			t.Fatalf("bounds = %v, want %v", bounds, wantBounds)
		}
	}
	for i := range wantCounts {
		if counts[i] != wantCounts[i] {
			t.Fatalf("counts = %v, want %v", counts, wantCounts)
		}
	}
	if h.Count() != 6 {
		t.Errorf("Count = %d, want 6", h.Count())
	}
	if got, want := h.Sum(), 0.0+0.5+1+1.5+5+9; math.Abs(got-want) > 1e-12 {
		t.Errorf("Sum = %g, want %g", got, want)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{10, 20, 30})
	for i := 0; i < 10; i++ {
		h.Observe(5) // le=10
	}
	for i := 0; i < 10; i++ {
		h.Observe(15) // le=20
	}
	// Median splits the two buckets; p95 is inside the second.
	if q := h.Quantile(0.25); q < 0 || q > 10 {
		t.Errorf("p25 = %g, want within (0, 10]", q)
	}
	if q := h.Quantile(0.95); q <= 10 || q > 20 {
		t.Errorf("p95 = %g, want within (10, 20]", q)
	}
	// Everything observed beyond the last bound reports the last bound.
	h2 := newHistogram([]float64{10})
	h2.Observe(99)
	if q := h2.Quantile(0.5); q != 10 {
		t.Errorf("overflow quantile = %g, want 10", q)
	}
	var empty Histogram
	if q := empty.Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %g, want 0", q)
	}
}

// TestSnapshotAndWriteTextGolden pins the exposition formats the obs gate
// and `/metrics` scrapes depend on.
func TestSnapshotAndWriteTextGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("reviews_total").Add(3)
	reg.Gauge("pool_workers_busy").Set(2)
	h := reg.Histogram("match_similarity", []float64{0.5, 1})
	h.Observe(0.4)
	h.Observe(0.9)

	snap := reg.Snapshot()
	want := map[string]float64{
		"reviews_total":            3,
		"pool_workers_busy":        2,
		"match_similarity|count":   2,
		"match_similarity|le|0.5":  1,
		"match_similarity|le|1":    1,
		"match_similarity|le|+Inf": 0,
	}
	for k, v := range want {
		if snap[k] != v {
			t.Errorf("Snapshot[%q] = %g, want %g", k, snap[k], v)
		}
	}
	if got := snap["match_similarity|sum"]; math.Abs(got-1.3) > 1e-12 {
		t.Errorf("Snapshot[match_similarity|sum] = %g, want 1.3", got)
	}

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, line := range []string{
		"counter reviews_total 3\n",
		"gauge pool_workers_busy 2\n",
		"hist match_similarity|count 2\n",
		"hist match_similarity|le|0.5 1\n",
	} {
		if !strings.Contains(text, line) {
			t.Errorf("WriteText output missing %q:\n%s", line, text)
		}
	}
	// Sorted by key: counter line precedes the histogram block? No — plain
	// lexicographic order over all keys.
	lines := strings.Split(strings.TrimSpace(text), "\n")
	for i := 1; i < len(lines); i++ {
		ki := strings.Fields(lines[i])[1]
		kp := strings.Fields(lines[i-1])[1]
		if kp > ki {
			t.Fatalf("WriteText not sorted: %q after %q", ki, kp)
		}
	}
}

func TestPublishExpvarSwap(t *testing.T) {
	a := NewRegistry()
	a.Counter("x").Add(1)
	a.PublishExpvar()
	b := NewRegistry()
	b.Counter("x").Add(7)
	b.PublishExpvar() // must not panic on duplicate publish
	if got := expvarReg.Load().Counter("x").Value(); got != 7 {
		t.Errorf("expvar-bound registry counter = %d, want 7 (swap did not take)", got)
	}
}
