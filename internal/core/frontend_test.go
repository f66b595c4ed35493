package core

import (
	"context"
	"reflect"
	"testing"

	"reviewsolver/internal/obs"
	"reviewsolver/internal/synth"
)

// TestFrontendCacheEquivalence proves the corpus-level analysis cache never
// changes output: for several seeds, every review localized through a warm
// shared frontend must match a solver whose frontend is reset before each
// review (every sentence and phrase a cache miss). Both solvers share one
// snapshot, so the only difference is cache state.
func TestFrontendCacheEquivalence(t *testing.T) {
	for _, seed := range []int64{3, 5, 7, 9} {
		data := synth.GenerateSample(seed)
		app := data.App

		sn := NewSnapshot()
		warm := NewWithSnapshot(sn)
		cold := NewWithSnapshot(sn)

		reviews := data.Reviews
		if len(reviews) > 40 {
			reviews = reviews[:40]
		}
		for i, rv := range reviews {
			cold.fe = newFrontend() // every lookup below is a miss
			want := cold.LocalizeReview(app, rv.Text, rv.PublishedAt)
			got := warm.LocalizeReview(app, rv.Text, rv.PublishedAt)
			if !reflect.DeepEqual(got.Mappings, want.Mappings) {
				t.Fatalf("seed %d review %d: cached mappings differ from uncached", seed, i)
			}
			if !reflect.DeepEqual(got.Ranked, want.Ranked) {
				t.Fatalf("seed %d review %d: cached ranking differs from uncached", seed, i)
			}
			if !reflect.DeepEqual(got.Analysis, want.Analysis) {
				t.Fatalf("seed %d review %d: cached analysis differs from uncached", seed, i)
			}
		}
	}
}

// TestAnalyzeReviewCacheDeterminism checks that the miss path (first call)
// and the hit path (second call) of the sentence cache produce identical
// analyses.
func TestAnalyzeReviewCacheDeterminism(t *testing.T) {
	s := New()
	data := synth.GenerateSample(5)
	for i, rv := range data.Reviews {
		if i >= 30 {
			break
		}
		first := s.AnalyzeReview(rv.Text)
		second := s.AnalyzeReview(rv.Text)
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("review %d: hit-path analysis differs from miss-path", i)
		}
	}
}

// TestLocalizeCorpusMatchesBatch checks the streaming batch API: results
// arrive in input order and are identical to a sequential solver's, at
// several worker counts, over a shared warm snapshot.
func TestLocalizeCorpusMatchesBatch(t *testing.T) {
	datas, inputs := poolInputs(20)
	app := datas[0].App
	sn := NewSnapshot()
	seq := NewWithSnapshot(sn)
	want := make([]*Result, len(inputs))
	for i, in := range inputs {
		want[i] = seq.LocalizeReview(app, in.Text, in.PublishedAt)
	}

	for _, workers := range []int{1, 2, 4} {
		p := NewPoolWithSnapshot(workers, sn)
		in := make(chan ReviewInput)
		go func() {
			for _, r := range inputs {
				in <- r
			}
			close(in)
		}()
		i := 0
		for cr := range p.LocalizeCorpusContext(context.Background(), app, in) {
			if cr.Index != i {
				t.Fatalf("workers=%d: result %d arrived with index %d", workers, i, cr.Index)
			}
			if !reflect.DeepEqual(cr.Result.Mappings, want[i].Mappings) {
				t.Fatalf("workers=%d review %d: corpus mappings differ from sequential", workers, i)
			}
			if !reflect.DeepEqual(cr.Result.Ranked, want[i].Ranked) {
				t.Fatalf("workers=%d review %d: corpus ranking differs from sequential", workers, i)
			}
			i++
		}
		if i != len(inputs) {
			t.Fatalf("workers=%d: got %d results, want %d", workers, i, len(inputs))
		}
	}
}

// TestFrontendCounterDeterminism checks the insert-wins counting discipline:
// miss totals equal distinct keys regardless of worker count, and hits make
// up the remainder.
func TestFrontendCounterDeterminism(t *testing.T) {
	datas, inputs := poolInputs(20)
	app := datas[0].App

	counts := func(workers int) (hits, misses float64) {
		reg := obs.NewRegistry()
		p := NewPool(workers).WithObserver(obs.NewRecorder(reg, nil))
		p.Localize(app, inputs)
		snap := reg.Snapshot()
		return snap[metricAnalysisCacheHits], snap[metricAnalysisCacheMisses]
	}
	h1, m1 := counts(1)
	if m1 == 0 {
		t.Fatal("no sentence-cache misses recorded at 1 worker")
	}
	if h1 == 0 {
		t.Fatal("no sentence-cache hits recorded at 1 worker (corpus has repeats)")
	}
	h4, m4 := counts(4)
	if h4 != h1 || m4 != m1 {
		t.Fatalf("counters not worker-count invariant: 1w hits/misses %g/%g, 4w %g/%g", h1, m1, h4, m4)
	}
}
