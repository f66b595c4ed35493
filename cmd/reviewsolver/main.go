// Command reviewsolver localizes a function-error review against an app.
//
// The app is either one of the built-in generated evaluation apps
// (-app <package>, see -list) or an app IR loaded from JSON (-appfile).
//
// Usage:
//
//	reviewsolver -list
//	reviewsolver -app com.fsck.k9 -review "cannot fetch mail since the update"
//	reviewsolver -appfile app.json -review "the reply button doesn't show"
//	reviewsolver -snapshot k9.snap -review "cannot fetch mail since the update"
//	reviewsolver -app com.fsck.k9 -review "..." -explain trace.json
//	reviewsolver -app com.fsck.k9 -triage -debug-addr localhost:6060 -trace
//
// With -snapshot the app IR and all precomputed matching state come from a
// .snap file compiled by snapshotc — no static extraction or catalog
// embedding at startup — and localization output is byte-identical to the
// in-memory build.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	"reviewsolver/internal/apk"
	"reviewsolver/internal/core"
	"reviewsolver/internal/obs"
	"reviewsolver/internal/report"
	"reviewsolver/internal/synth"
	"reviewsolver/internal/textclass"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "reviewsolver:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		appPkg    = flag.String("app", "", "package id of a built-in generated app")
		appFile   = flag.String("appfile", "", "path to an app IR JSON file")
		snapPath  = flag.String("snapshot", "", "serve from a .snap snapshot compiled by snapshotc (replaces -app/-appfile)")
		review    = flag.String("review", "", "review text to localize")
		list      = flag.Bool("list", false, "list the built-in generated apps")
		seed      = flag.Int64("seed", 1, "generator seed for built-in apps")
		when      = flag.String("published", "", "review publication time (RFC 3339); default: after the latest release")
		triage    = flag.Bool("triage", false, "triage the app's whole generated review corpus into a markdown report")
		parallel  = flag.Int("parallel", 0, "similarity-matching fan-out per review: 0 = all CPUs, negative = sequential")
		debugAddr = flag.String("debug-addr", "", "serve /debug/vars, /debug/pprof and /metrics on this address while running")
		explain   = flag.String("explain", "", "write the explain-trace JSON for the localized review to this file (\"-\" for stdout)")
		trace     = flag.Bool("trace", false, "log pipeline stage spans to stderr as structured events")
	)
	flag.Parse()

	if *list {
		for _, info := range synth.Table6Specs() {
			fmt.Printf("%-40s %s\n", info.Package, info.Name)
		}
		return nil
	}

	reg := obs.NewRegistry()
	var logger *slog.Logger
	if *trace {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	rec := obs.NewRecorder(reg, logger)
	if *debugAddr != "" {
		ds, err := obs.StartDebugServer(*debugAddr, reg)
		if err != nil {
			return fmt.Errorf("start debug server: %w", err)
		}
		defer ds.Close()
		fmt.Fprintf(os.Stderr, "debug server listening on http://%s (/debug/vars, /debug/pprof, /metrics)\n", ds.Addr())
	}

	if *triage {
		return runTriage(*appPkg, *seed, *parallel, rec)
	}
	if *review == "" {
		return errors.New("missing -review text (or use -list / -triage)")
	}

	vec, clf := textclass.TrainOn(synth.TrainingCorpus(*seed),
		func() textclass.Classifier { return textclass.NewBoostedTrees() })

	var (
		app *apk.App
		sn  *core.Snapshot
		err error
	)
	if *snapPath != "" {
		sn, app, err = core.LoadSnapshot(*snapPath, core.WithClassifier(vec, clf))
		if err != nil {
			return fmt.Errorf("load snapshot: %w", err)
		}
	} else {
		app, err = loadApp(*appPkg, *appFile, *seed)
		if err != nil {
			return err
		}
		sn = core.NewSnapshot(core.WithClassifier(vec, clf))
		sn.PrecomputeApp(app)
	}

	publishedAt := app.Latest().ReleasedAt.AddDate(0, 0, 1)
	if *when != "" {
		publishedAt, err = time.Parse(time.RFC3339, *when)
		if err != nil {
			return fmt.Errorf("parse -published: %w", err)
		}
	}

	solver := core.NewWithSnapshot(sn, core.WithParallelism(*parallel), core.WithObserver(rec))

	if *explain != "" {
		res, tr := solver.LocalizeReviewTraced(app, *review, publishedAt)
		printResult(res, *review)
		data, err := tr.JSON()
		if err != nil {
			return fmt.Errorf("encode explain trace: %w", err)
		}
		if *explain == "-" {
			_, err = os.Stdout.Write(data)
			return err
		}
		if err := os.WriteFile(*explain, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "explain trace written to %s\n", *explain)
		return nil
	}
	res := solver.LocalizeReview(app, *review, publishedAt)
	printResult(res, *review)
	return nil
}

// runTriage localizes a built-in app's entire generated review corpus and
// prints the markdown triage report. The corpus is drained through a
// snapshot-backed solver so static extraction happens once up front; the
// stderr summary reports per-review latency percentiles read from the
// telemetry histogram, not just total wall-clock.
func runTriage(pkg string, seed int64, parallel int, rec *obs.Recorder) error {
	if pkg == "" {
		return errors.New("-triage requires -app <package>")
	}
	var data *synth.AppData
	for i, info := range synth.Table6Specs() {
		if info.Package == pkg {
			data = synth.GenerateTable6(seed)[i]
		}
	}
	if data == nil {
		return fmt.Errorf("unknown built-in app %q (use -list)", pkg)
	}
	vec, clf := textclass.TrainOn(synth.TrainingCorpus(seed),
		func() textclass.Classifier { return textclass.NewBoostedTrees() })
	sn := core.NewSnapshot(core.WithClassifier(vec, clf))
	sn.PrecomputeApp(data.App)
	solver := core.NewWithSnapshot(sn, core.WithParallelism(parallel), core.WithObserver(rec))
	b := report.NewBuilder(solver, data.App)
	started := time.Now()
	for _, rv := range data.Reviews {
		b.Add(rv.Text, rv.PublishedAt)
	}
	elapsed := time.Since(started)
	fmt.Print(b.Build().Markdown())

	h := rec.Histogram(core.ReviewLatencyMetric, obs.LatencyBucketsNs)
	fmt.Fprintf(os.Stderr, "triage: %d reviews in %s — per-review p50=%s p95=%s p99=%s\n",
		len(data.Reviews), elapsed.Round(time.Millisecond),
		nsDuration(h.Quantile(0.50)), nsDuration(h.Quantile(0.95)), nsDuration(h.Quantile(0.99)))
	return nil
}

// nsDuration renders a nanosecond histogram quantile as a duration.
func nsDuration(ns float64) time.Duration {
	return time.Duration(ns).Round(time.Microsecond)
}

func loadApp(pkg, file string, seed int64) (*apk.App, error) {
	switch {
	case file != "":
		return apk.LoadJSON(file)
	case pkg != "":
		for i, info := range synth.Table6Specs() {
			if info.Package == pkg {
				data := synth.GenerateTable6(seed)[i]
				return data.App, nil
			}
		}
		return nil, fmt.Errorf("unknown built-in app %q (use -list)", pkg)
	default:
		return nil, errors.New("one of -app or -appfile is required")
	}
}

func printResult(res *core.Result, review string) {
	fmt.Printf("review: %s\n", review)
	if !res.IsError {
		fmt.Println("classifier: not a function-error review")
		return
	}
	fmt.Println("classifier: function-error review")
	if res.Release != nil {
		fmt.Printf("matched APK version: %s (released %s)\n",
			res.Release.Version, res.Release.ReleasedAt.Format("2006-01-02"))
	}
	if res.Analysis != nil {
		for _, vp := range res.Analysis.VerbPhrases {
			fmt.Printf("verb phrase: %s\n", vp.String())
		}
		for _, q := range res.Analysis.Quoted {
			fmt.Printf("quoted message: %q\n", q)
		}
	}
	if !res.Localized() {
		fmt.Println("no code mapping found")
		return
	}
	fmt.Printf("\nrecommended classes (top %d):\n", len(res.Ranked))
	for i, rc := range res.Ranked {
		fmt.Printf("%2d. %-55s importance=%d deps=%d via %s\n",
			i+1, rc.Class, rc.Importance, rc.Dependencies, strings.Join(rc.Contexts, ", "))
		if len(rc.Methods) > 0 {
			fmt.Printf("    methods: %s\n", strings.Join(rc.Methods, ", "))
		}
	}
}
