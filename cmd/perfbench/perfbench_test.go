package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"reviewsolver/internal/synth"
)

func TestPercentileCountsFailuresAsInf(t *testing.T) {
	ms := make([]float64, 1000)
	for i := range ms {
		ms[i] = float64(1000 - i)
	}
	p50, p99, err := summarizeLatency(ms, 10)
	if err != nil {
		t.Fatal(err)
	}
	// 1010 requests: the p99's rank 1000 is the slowest success.
	if p99 != 1000 || p50 != 505 {
		t.Fatalf("p50, p99 = %v, %v; want 505, 1000", p50, p99)
	}
	// One more failure pushes the p99 rank past the successes.
	if _, p99, _ := summarizeLatency(ms, 11); !math.IsInf(p99, 1) {
		t.Fatalf("p99 with 11 failures = %v, want +Inf", p99)
	}
	if got := percentile(nil, 3, 0.5); !math.IsInf(got, 1) {
		t.Fatalf("percentile of failures only = %v, want +Inf", got)
	}
}

func TestTooFewSamplesAborts(t *testing.T) {
	_, _, err := summarizeLatency(make([]float64, minSamples-1), 0)
	if !errors.Is(err, errFewSamples) {
		t.Fatalf("err = %v, want errFewSamples", err)
	}
	// Failures do not count toward the minimum.
	if _, _, err := summarizeLatency(make([]float64, minSamples-1), 5); !errors.Is(err, errFewSamples) {
		t.Fatalf("err = %v, want errFewSamples", err)
	}
	if _, _, err := summarizeLatency(make([]float64, minSamples), 0); err != nil {
		t.Fatal(err)
	}
}

func TestStreamsDeterministicPerSeedAndConnection(t *testing.T) {
	order, sizes := popularity(7, 5), []int{3, 9, 1, 40, 12}
	draw := func(seed int64, conn, phase int) []request {
		st := newStream(seed, conn, phase, order, sizes)
		out := make([]request, 200)
		for i := range out {
			out[i] = st.next()
		}
		return out
	}
	a := draw(7, 0, phaseMeasure)
	if !reflect.DeepEqual(a, draw(7, 0, phaseMeasure)) {
		t.Fatal("same seed and connection gave different streams")
	}
	for _, other := range [][]request{draw(7, 1, phaseMeasure), draw(8, 0, phaseMeasure), draw(7, 0, phaseWarmup)} {
		if reflect.DeepEqual(a, other) {
			t.Fatal("distinct seed, connection or phase gave the same stream")
		}
	}
	if !reflect.DeepEqual(popularity(7, 5), order) {
		t.Fatal("popularity order is not deterministic")
	}
	for _, r := range a {
		if r.body < 0 || r.body >= sizes[r.app] {
			t.Fatalf("request %+v outside app %d's %d bodies", r, r.app, sizes[r.app])
		}
	}
}

func TestZipfFavoursPopularApps(t *testing.T) {
	order := popularity(1, 18)
	sizes := make([]int, 18)
	for i := range sizes {
		sizes[i] = 10
	}
	st := newStream(1, 0, phaseMeasure, order, sizes)
	hits := make([]int, 18)
	for i := 0; i < 20000; i++ {
		hits[st.next().app]++
	}
	if hits[order[0]] <= hits[order[1]] || hits[order[1]] <= hits[order[17]] {
		t.Fatalf("hits by rank not decreasing: top %d, second %d, last %d", hits[order[0]], hits[order[1]], hits[order[17]])
	}
}

func TestChunksWrapToFullBatches(t *testing.T) {
	reviews := make([]synth.Review, 5)
	for i := range reviews {
		reviews[i].ID = i
	}
	got := chunks(reviews, 2)
	var ids [][]int
	for _, g := range got {
		var row []int
		for _, rv := range g {
			row = append(row, rv.ID)
		}
		ids = append(ids, row)
	}
	if want := [][]int{{0, 1}, {2, 3}, {4, 0}}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("chunks = %v, want %v", ids, want)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Name: "a", Parent: 1, Start: 10, End: 30},
		{ID: 3, Name: "b", Parent: 1, Start: 20, End: 50}, // overlaps a
		{ID: 4, Name: "c", Parent: 1, Start: 60, End: 70},
		{ID: 5, Name: "d", Parent: 1, Start: 90, End: 120}, // runs past its parent
		{ID: 6, Name: "e", Parent: 3, Start: 25, End: 35},
	}
	self := selfTimes(spans)
	// Children cover [10,50] + [60,70] + [90,100] = 60 of the parent's 100.
	want := map[int64]int64{1: 40, 2: 20, 3: 20, 4: 10, 5: 30, 6: 10}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times = %v, want %v", self, want)
	}
	st := spanStats(spans)
	if r := st["request"]; r.Calls != 1 || r.MeanUs != 0.1 || r.SelfMeanUs != 0.04 {
		t.Fatalf("request stat = %+v", r)
	}
	b, err := json.Marshal(spans[2])
	if err != nil || string(b) != `[3,0,"b",1,20,50]` {
		t.Fatalf("span JSON = %s, %v", b, err)
	}
}

func TestLayerRatios(t *testing.T) {
	if ratio(1, 0) != 0 || ratio(1, 4) != 0.25 {
		t.Fatal("ratio")
	}
	diag := map[string]float64{}
	layerDiagnostics(diag, map[string]spanStat{}, replayStats{
		reviews: 10, errorReviews: 4, maxRows: 300,
		counters: map[string]int64{
			ctrAnalysisHits: 3, ctrAnalysisMisses: 1,
			ctrPhraseHits: 9, ctrPhraseMisses: 1,
			ctrPruned: 60, ctrEvaluated: 40, ctrMatched: 2,
		},
	})
	want := map[string]float64{
		"classify.error_share":        0.4,
		"frontend.sentence_hit_ratio": 0.75,
		"frontend.phrase_hit_ratio":   0.9,
		"kernel.prune_ratio":          0.6,
		"kernel.match_ratio":          0.05,
		"kernel.rows_per_review":      25,
		"kernel.max_rows":             300,
	}
	for k, v := range want {
		if diag[k] != v {
			t.Errorf("%s = %v, want %v", k, diag[k], v)
		}
	}
}

func TestReleaseWriterTouchesBaseBeforeDelta(t *testing.T) {
	c := &corpus{apps: []benchApp{{pkg: "a"}, {pkg: "b"}}, churn: []int{1}}
	l := layout{dir: "d"}
	var log []string
	ops := writerOps{
		register: func(version, path string) error {
			log = append(log, "register "+version+" "+filepath.Base(path))
			return nil
		},
		touch: func(version string) error {
			log = append(log, "touch "+version)
			return nil
		},
	}
	wr := newReleaseWriter(c, l, true)
	for i := 0; i < 3; i++ {
		if err := wr.step(ops); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{
		"register r2 app01.base.snap",
		"touch r2", "register r3 app01.delta.snap",
		"register r4 app01.base.snap",
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("writer log =\n%q\nwant\n%q", log, want)
	}
	if wr.fulls != 2 || wr.deltas != 1 || wr.latest != "r4" || wr.base != "r4" {
		t.Fatalf("writer state = %+v", wr)
	}

	// Without delta images every registration is a full image.
	log = nil
	wr = newReleaseWriter(c, l, false)
	for i := 0; i < 2; i++ {
		if err := wr.step(ops); err != nil {
			t.Fatal(err)
		}
	}
	if want := "register r3 app01.snap"; log[1] != want || wr.deltas != 0 {
		t.Fatalf("second registration = %q (deltas %d), want %q", log[1], wr.deltas, want)
	}
}

// TestSmokeInteractive runs the interactive workload end to end with a one
// second window: build, set-up, verification, warm-up and measurement.
func TestSmokeInteractive(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots reviewd")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	bins, err := buildBinaries(root, filepath.Join(tmp, "bin"))
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("interactive")
	cfg := config{root: root, work: tmp, seed: 1, window: time.Second, warmup: 200 * time.Millisecond, setupReps: 1}
	rep, err := runWorkload(context.Background(), cfg, bins, w)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 {
		t.Fatalf("run not correct: %d of %d failed: %s", rep.Failed, rep.Attempted, rep.FirstError)
	}
	var names []string
	for _, m := range rep.Metrics {
		names = append(names, m.Name)
		if !(m.Value > 0) {
			t.Errorf("%s = %v, want > 0", m.Name, m.Value)
		}
	}
	if want := []string{"reviews_per_s_norm", "latency_p50_ms_norm", "latency_p99_ms_norm", "setup_s", "server_rss_peak_mb"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("metrics = %v, want %v", names, want)
	}
}
