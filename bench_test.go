// Package reviewsolver's root benchmark suite: one benchmark per paper
// table (the full rows are printed by cmd/experiments; these measure the
// cost of regenerating each one) plus micro-benchmarks for the pipeline
// stages that dominate Table 15.
package reviewsolver

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"reviewsolver/internal/apk"
	"reviewsolver/internal/baseline"
	"reviewsolver/internal/core"
	"reviewsolver/internal/ctxinfo"
	"reviewsolver/internal/experiments"
	"reviewsolver/internal/ios"
	"reviewsolver/internal/obs"
	"reviewsolver/internal/qa"
	"reviewsolver/internal/sdk"
	"reviewsolver/internal/sentiment"
	"reviewsolver/internal/synth"
	"reviewsolver/internal/textclass"
	"reviewsolver/internal/wordvec"
)

// sharedState lazily builds the expensive fixtures once for all benchmarks.
var (
	once       sync.Once
	benchRun   *experiments.Runner
	benchApps  []*synth.AppData
	benchSolve *core.Solver
)

func setup() {
	once.Do(func() {
		benchRun = experiments.NewRunner(1)
		benchApps = benchRun.Apps18()
		benchSolve = benchRun.Solver()
	})
}

func k9() *synth.AppData {
	setup()
	for _, a := range benchApps {
		if a.Info.Package == "com.fsck.k9" {
			return a
		}
	}
	return benchApps[0]
}

// --- one benchmark per evaluation table -----------------------------------------

func benchTable(b *testing.B, n int) {
	b.Helper()
	setup()
	for i := 0; i < b.N; i++ {
		tab, err := benchRun.TableByNumber(n)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable01ContextDistribution(b *testing.B) { benchTable(b, 1) }
func BenchmarkTable02Classifiers(b *testing.B)         { benchTable(b, 2) }
func BenchmarkTable03ScoreSample(b *testing.B)         { benchTable(b, 3) }
func BenchmarkTable04Sentiment(b *testing.B)           { benchTable(b, 4) }
func BenchmarkTable05Patterns(b *testing.B)            { benchTable(b, 5) }
func BenchmarkTable06Inventory(b *testing.B)           { benchTable(b, 6) }
func BenchmarkTable07ExternalDatasets(b *testing.B)    { benchTable(b, 7) }
func BenchmarkTable08BugReportGT(b *testing.B)         { benchTable(b, 8) }
func BenchmarkTable09ReleaseNoteGT(b *testing.B)       { benchTable(b, 9) }
func BenchmarkTable10Overlap(b *testing.B)             { benchTable(b, 10) }
func BenchmarkTable11Resolved(b *testing.B)            { benchTable(b, 11) }
func BenchmarkTable12Contexts(b *testing.B)            { benchTable(b, 12) }
func BenchmarkTable13Precision(b *testing.B)           { benchTable(b, 13) }
func BenchmarkTable14AdditionalApps(b *testing.B)      { benchTable(b, 14) }
func BenchmarkTable15LocalizerTiming(b *testing.B)     { benchTable(b, 15) }
func BenchmarkTable16IOS(b *testing.B)                 { benchTable(b, 16) }

// --- pipeline micro-benchmarks (the Table 15 cost centres) -----------------------

func BenchmarkLocalizeReviewEndToEnd(b *testing.B) {
	app := k9()
	review := "It's a great app but i cannot fetch mail since the latest update"
	when := app.App.Latest().ReleasedAt.Add(24 * time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSolve.LocalizeReview(app.App, review, when)
	}
}

func BenchmarkAnalyzeReview(b *testing.B) {
	setup()
	review := "Reinstalled the app, reply button now doesn't show. I receive an error message saying \"Failed to send some messages\"."
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSolve.AnalyzeReview(review)
	}
}

func BenchmarkExtractStatic(b *testing.B) {
	app := k9()
	release := app.App.Latest()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSolve.ExtractStatic(release)
	}
}

func benchLocalizer(b *testing.B, ctx ctxinfo.Type, review string) {
	b.Helper()
	app := k9()
	release := app.App.Latest()
	info := benchSolve.StaticFor(release)
	previous := app.App.Releases[len(app.App.Releases)-2]
	ra := benchSolve.AnalyzeReview(review)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSolve.LocalizeByContext(ctx, ra, info, previous, release)
	}
}

func BenchmarkLocalizerAppSpecific(b *testing.B) {
	benchLocalizer(b, ctxinfo.AppSpecificTask, "keeps crashing every time i fetch mail")
}

func BenchmarkLocalizerAPIURIIntent(b *testing.B) {
	benchLocalizer(b, ctxinfo.APIURIIntent, "i cannot send email to anyone")
}

func BenchmarkLocalizerGeneralTask(b *testing.B) {
	benchLocalizer(b, ctxinfo.GeneralTask, "errors prevent me to download file")
}

func BenchmarkLocalizerGUI(b *testing.B) {
	benchLocalizer(b, ctxinfo.GUI, "the reply button does not show")
}

func BenchmarkLocalizerErrorMessage(b *testing.B) {
	benchLocalizer(b, ctxinfo.ErrorMessage, `it says "Failed to send some messages" every time`)
}

func BenchmarkLocalizerException(b *testing.B) {
	benchLocalizer(b, ctxinfo.Exception, "there is a socket exception when it polls")
}

func BenchmarkLocalizerOpeningApp(b *testing.B) {
	benchLocalizer(b, ctxinfo.OpeningApp, "it crashed every time i opened it")
}

func BenchmarkLocalizerRegistration(b *testing.B) {
	benchLocalizer(b, ctxinfo.RegisteringAccount, "cannot login to my account")
}

func BenchmarkLocalizerUpdateDiff(b *testing.B) {
	benchLocalizer(b, ctxinfo.UpdatingApp, "app started crashing after recent update")
}

// --- component micro-benchmarks ---------------------------------------------------

func BenchmarkClassifierPredict(b *testing.B) {
	vec, clf := textclass.TrainOn(synth.TrainingCorpus(1),
		func() textclass.Classifier { return textclass.NewBoostedTrees() })
	x := vec.Transform("the app keeps crashing when i upload photos")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clf.Predict(x)
	}
}

func BenchmarkBoostedTreesFit(b *testing.B) {
	docs := synth.TrainingCorpus(1)
	vec := textclass.NewVectorizer()
	vec.Fit(docs)
	xs, ys := vec.TransformAll(docs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		textclass.NewBoostedTrees().Fit(xs, ys)
	}
}

// BenchmarkVectorizerTransform times one sentence without an error word,
// which skips the negation parse; BenchmarkClassifyCorpus times the mix the
// classifier serves.
func BenchmarkVectorizerTransform(b *testing.B) {
	vec, _ := textclass.TrainOn(synth.TrainingCorpus(1),
		func() textclass.Classifier { return textclass.NewNaiveBayes() })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vec.Transform("the app keeps crashing when i upload photos to the server")
	}
}

// classifySink keeps BenchmarkClassifyCorpus's predictions live.
var classifySink int

// BenchmarkClassifyCorpus classifies the traffic the classifier serves:
// every review of the seed-1 Table 6 apps (7,570), through the production
// boosted trees. One op is one pass over the corpus; ns/review and
// allocs/review are per Transform + Predict.
func BenchmarkClassifyCorpus(b *testing.B) {
	vec, clf := textclass.TrainOn(synth.TrainingCorpus(1),
		func() textclass.Classifier { return textclass.NewBoostedTrees() })
	var texts []string
	for _, app := range synth.GenerateTable6(1) {
		for _, r := range app.Reviews {
			texts = append(texts, r.Text)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, text := range texts {
			if clf.Predict(vec.Transform(text)) {
				classifySink++
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	reviews := float64(b.N * len(texts))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/reviews, "ns/review")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/reviews, "allocs/review")
}

func BenchmarkPhraseSimilarity(b *testing.B) {
	m := wordvec.NewModel()
	a1 := []string{"fetch", "mail"}
	a2 := []string{"get", "email"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Similarity(a1, a2)
	}
}

func BenchmarkSentimentSentiStrength(b *testing.B) {
	a := sentiment.SentiStrength{}
	review := "It's a great app but since the last update my stats page doesnt work properly."
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sentiment.HasNegativeSentence(a, review)
	}
}

func BenchmarkQATopAPIs(b *testing.B) {
	catalog := sdk.NewCatalog()
	idx := qa.NewIndex(catalog, qa.GenerateCorpus(catalog))
	phrase := []string{"download", "file"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.TopAPIs(phrase, 5)
	}
}

func BenchmarkChangeAdvisor(b *testing.B) {
	app := k9()
	reviews := make([]string, 0, 100)
	for _, r := range app.Reviews[:100] {
		reviews = append(reviews, r.Text)
	}
	ca := baseline.NewChangeAdvisor()
	release := app.App.Latest()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ca.MapReviews(reviews, release)
	}
}

func BenchmarkWhere2Change(b *testing.B) {
	app := k9()
	reviews := make([]string, 0, 100)
	for _, r := range app.Reviews[:100] {
		reviews = append(reviews, r.Text)
	}
	var bugs []baseline.BugText
	for _, br := range app.BugReports {
		bugs = append(bugs, baseline.BugText{Title: br.Title, Body: br.Body})
	}
	w2c := baseline.NewWhere2Change()
	release := app.App.Latest()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w2c.MapReviews(reviews, bugs, release)
	}
}

func BenchmarkIOSLocalize(b *testing.B) {
	loc := ios.NewLocalizer()
	apps := ios.GenerateTable16(1)
	review := "The app crashes every time i upload photos."
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loc.Localize(apps[1].App, review)
	}
}

func BenchmarkAppGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		data := synth.GenerateSample(int64(i))
		if data == nil {
			b.Fatal("nil app")
		}
	}
}

// BenchmarkReleaseDiff times the one-time cost of the release diff: the
// first, unmemoized apk.DiffReleases of K-9's last release pair, plain and
// padded 16× as perfbench's large_apps pads it. Each iteration diffs fresh
// shallow copies of the two releases, so it builds both class indexes and
// hashes every class, as the first update review after a load does.
func BenchmarkReleaseDiff(b *testing.B) {
	plain := k9().App
	for _, bc := range []struct {
		name string
		app  *apk.App
	}{{"plain", plain}, {"padded16", synth.InflateApp(plain, 16)}} {
		prev := bc.app.Releases[len(bc.app.Releases)-2]
		cur := bc.app.Releases[len(bc.app.Releases)-1]
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				apk.DiffReleases(&apk.Release{Classes: prev.Classes}, &apk.Release{Classes: cur.Classes})
			}
		})
	}
}

// --- snapshot & pool benchmarks (shared precomputed matching state) ---------------

func throughputInputs(n int) (*synth.AppData, []core.ReviewInput) {
	app := k9()
	if n > len(app.Reviews) {
		n = len(app.Reviews)
	}
	inputs := make([]core.ReviewInput, 0, n)
	for _, rv := range app.Reviews[:n] {
		inputs = append(inputs, core.ReviewInput{Text: rv.Text, PublishedAt: rv.PublishedAt})
	}
	return app, inputs
}

// BenchmarkSequentialThroughput is the seed baseline: one sequential solver
// draining a 100-review batch.
func BenchmarkSequentialThroughput(b *testing.B) {
	app, inputs := throughputInputs(100)
	solver := core.New()
	for _, r := range app.App.Releases {
		solver.StaticFor(r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range inputs {
			solver.LocalizeReview(app.App, in.Text, in.PublishedAt)
		}
	}
}

// BenchmarkPoolThroughput drains the same 100-review batch through a
// NumCPU-worker pool whose workers share one precomputed Snapshot. On a
// multi-core runner this scales with the worker count; compare against
// BenchmarkSequentialThroughput.
func BenchmarkPoolThroughput(b *testing.B) {
	app, inputs := throughputInputs(100)
	sn := core.NewSnapshot()
	sn.PrecomputeApp(app.App)
	pool := core.NewPoolWithSnapshot(0, sn)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.Localize(app.App, inputs)
	}
}

// BenchmarkCorpusThroughput drains the 100-review batch through the
// streaming LocalizeCorpusContext API (bounded channels, deterministic output
// order) and reports end-to-end reviews/sec. Compare against
// BenchmarkPoolThroughput: the stream adds ordering but shares the same
// warm frontend caches, so steady-state cost per review is comparable.
func BenchmarkCorpusThroughput(b *testing.B) {
	app, inputs := throughputInputs(100)
	sn := core.NewSnapshot()
	sn.PrecomputeApp(app.App)
	pool := core.NewPoolWithSnapshot(0, sn)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := make(chan core.ReviewInput)
		go func() {
			for _, r := range inputs {
				in <- r
			}
			close(in)
		}()
		n := 0
		for range pool.LocalizeCorpusContext(context.Background(), app.App, in) {
			n++
		}
		if n != len(inputs) {
			b.Fatalf("drained %d results, want %d", n, len(inputs))
		}
	}
	b.ReportMetric(float64(len(inputs))*float64(b.N)/b.Elapsed().Seconds(), "reviews/s")
}

// BenchmarkSnapshotWarmup measures the one-time cost of building the shared
// precomputed state (catalog embeddings + all release extractions). A pool
// of any size pays this exactly once.
func BenchmarkSnapshotWarmup(b *testing.B) {
	app := k9()
	for i := 0; i < b.N; i++ {
		sn := core.NewSnapshot()
		sn.PrecomputeApp(app.App)
	}
}

// BenchmarkSnapshotLoad measures reconstructing a serving-ready Snapshot
// from a compiled .snap image: container validation, binary IR decode, one
// apg.Build per release, and zero-copy stitching of the precomputed
// embedding matrices. Compare against BenchmarkSnapshotWarmup (the
// in-memory rebuild the file replaces); the CI gate requires ≥10×.
func BenchmarkSnapshotLoad(b *testing.B) {
	app := k9()
	sn := core.NewSnapshot()
	img, err := core.EncodeSnapshot(sn, app.App)
	if err != nil {
		b.Fatal(err)
	}
	// One warm-up load pays the process-wide solver template (sync.Once).
	if _, _, err := core.LoadSnapshotBytes(img); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(img)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.LoadSnapshotBytes(img); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotEncode measures the compile half of the .snap path
// (extraction state already precomputed — serialization cost only).
func BenchmarkSnapshotEncode(b *testing.B) {
	app := k9()
	sn := core.NewSnapshot()
	sn.PrecomputeApp(app.App)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EncodeSnapshot(sn, app.App); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerWorkerWarmup measures the retired seed behaviour for
// comparison: N workers each building a private solver and re-extracting
// the same releases (what NewPool did before the Snapshot layer).
func BenchmarkPerWorkerWarmup(b *testing.B) {
	app := k9()
	workers := runtime.NumCPU()
	if workers < 2 {
		workers = 2 // the seed pool duplicated state per worker even on one CPU
	}
	for i := 0; i < b.N; i++ {
		for w := 0; w < workers; w++ {
			s := core.New()
			for _, r := range app.App.Releases {
				s.StaticFor(r)
			}
		}
	}
}

// BenchmarkLocalizeReviewObserved measures one warm K-9 review on a
// snapshot-backed solver, the configuration a pool worker runs, with
// telemetry variants. "off" is the obs layer's overhead reference: with no
// recorder installed the instrumentation is nil checks only. "metrics" and
// "traced" price the opt-in layers (registry atomics / explain-trace
// collection).
func BenchmarkLocalizeReviewObserved(b *testing.B) {
	app := k9()
	sn := core.NewSnapshot()
	sn.PrecomputeApp(app.App)
	review := "It's a great app but i cannot fetch mail since the latest update"
	when := app.App.Latest().ReleasedAt.Add(24 * time.Hour)
	b.Run("off", func(b *testing.B) {
		solver := core.NewWithSnapshot(sn)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			solver.LocalizeReview(app.App, review, when)
		}
	})
	b.Run("metrics", func(b *testing.B) {
		solver := core.NewWithSnapshot(sn, core.WithObserver(obs.NewRecorder(obs.NewRegistry(), nil)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			solver.LocalizeReview(app.App, review, when)
		}
	})
	b.Run("traced", func(b *testing.B) {
		solver := core.NewWithSnapshot(sn, core.WithObserver(obs.NewRecorder(obs.NewRegistry(), nil)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			solver.LocalizeReviewTraced(app.App, review, when)
		}
	})
}

// --- similarity kernel micro-benchmarks -------------------------------------------

// BenchmarkCosineVsDot compares the per-candidate kernels: full cosine (two
// redundant norms + sqrt + divide) against the dot-only unrolled kernel the
// unit-vector invariant allows.
func BenchmarkCosineVsDot(b *testing.B) {
	m := wordvec.NewModel()
	q := m.PhraseVector([]string{"fetch", "mail"})
	c := m.PhraseVector([]string{"get", "email"})
	b.Run("Cosine", func(b *testing.B) {
		var acc float64
		for i := 0; i < b.N; i++ {
			acc += wordvec.Cosine(q, c)
		}
		sinkFloat = acc
	})
	b.Run("Dot", func(b *testing.B) {
		var acc float64
		for i := 0; i < b.N; i++ {
			acc += wordvec.Dot(q, c)
		}
		sinkFloat = acc
	})
}

// sinkFloat defeats dead-code elimination in the kernel micro-benchmarks.
var sinkFloat float64

// benchScanMatrix builds a catalog-sized candidate matrix from lexicon-ish
// phrases.
func benchScanMatrix(rows int) (*wordvec.Model, *wordvec.Matrix, []wordvec.Vector) {
	m := wordvec.NewModel()
	seeds := [][]string{
		{"send", "message"}, {"upload", "photo"}, {"delete", "file"},
		{"open", "connection"}, {"read", "contact"}, {"play", "audio"},
		{"query", "database"}, {"parse", "response"}, {"render", "page"},
		{"validate", "input"},
	}
	mat := wordvec.NewMatrix(rows)
	vecs := make([]wordvec.Vector, 0, rows)
	for i := 0; i < rows; i++ {
		p := append([]string(nil), seeds[i%len(seeds)]...)
		p = append(p, string(rune('a'+i%26))+"x"+string(rune('a'+(i/26)%26)))
		v := m.PhraseVector(p)
		mat.Append(v)
		vecs = append(vecs, v)
	}
	mat.Finish()
	return m, mat, vecs
}

// BenchmarkMatrixScan compares one query against 1024 candidates two ways:
// a brute-force per-row Cosine loop and the prescreened threshold scan.
func BenchmarkMatrixScan(b *testing.B) {
	m, mat, vecs := benchScanMatrix(1024)
	qv := m.PhraseVector([]string{"send", "text"})
	threshold := m.Threshold()
	b.Run("PerStructCosine", func(b *testing.B) {
		n := 0
		for i := 0; i < b.N; i++ {
			for _, c := range vecs {
				if wordvec.Cosine(qv, c) >= threshold {
					n++
				}
			}
		}
		sinkFloat = float64(n)
	})
	b.Run("PrescreenScan", func(b *testing.B) {
		q := wordvec.PrepareQuery(qv)
		n := 0
		for i := 0; i < b.N; i++ {
			mat.ScanThresholdCount(&q, threshold, 0, mat.Rows(), func(int, float64) { n++ })
		}
		sinkFloat = float64(n)
	})
}
