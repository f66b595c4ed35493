package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"reviewsolver/internal/core"
)

// preWindowWrites are the release registrations made before verification
// in fleet_churn, a full base and then a delta, so a delta-registered
// version is among the verified requests.
const preWindowWrites = 2

// slice is the length of one closed-loop stretch of the warm-up and the
// measured window; the window calibrates the host after each slice.
const slice = 500 * time.Millisecond

// config is one invocation's settings.
type config struct {
	root, work string // repository root; artifact directory
	seed       int64
	window     time.Duration // measured closed-loop window
	warmup     time.Duration
	setupReps  int // measured set-ups; setup_s is their median
	trace      bool
}

// metric is one named, unit-carrying result.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one workload's result file.
type report struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Trace      bool               `json:"trace"`
	Host       host               `json:"host"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	FirstError string             `json:"first_error,omitempty"`
	Metrics    []metric           `json:"metrics"`
	Diagnostic map[string]float64 `json:"diagnostics"`
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run: interactive, triage_batch, large_apps, fleet_churn, or all")
		seed    = flag.Int64("seed", 1, "seed for the request streams")
		seconds = flag.Int("seconds", 6, "length of the measured window in seconds")
		trace   = flag.Int("trace", 0, "1 replays the streams in-process with per-layer spans and prints the per-layer metrics")
	)
	flag.Parse()
	root, err := os.Getwd()
	if err != nil {
		fail(err)
	}
	cfg := config{
		root:      root,
		work:      filepath.Join(root, ".bench_build", "perfbench"),
		seed:      *seed,
		window:    time.Duration(*seconds) * time.Second,
		warmup:    2 * time.Second,
		setupReps: 3,
		trace:     *trace == 1,
	}
	if cfg.trace {
		cfg.setupReps = 1
	}
	var run []workload
	if *name == "all" {
		run = workloads
	} else if w, ok := workloadByName(*name); ok {
		run = []workload{w}
	} else {
		fail(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail(errors.New("-seconds must be at least 1 and -trace 0 or 1"))
	}

	bins, err := buildBinaries(cfg.root, filepath.Join(root, ".bench_build", "bin"))
	if err != nil {
		fail(err)
	}
	final := summary{Correct: true, Metrics: map[string]value{}}
	for _, w := range run {
		rep, err := runWorkload(context.Background(), cfg, bins, w)
		if err != nil {
			fail(fmt.Errorf("%s: %w", w.name, err))
		}
		for _, m := range rep.Metrics {
			fmt.Printf("%-13s %-34s %14.4f %s\n", w.name, m.Name, m.Value, m.Unit)
			key := m.Name
			if len(run) > 1 {
				key = w.name + "." + m.Name
			}
			final.Metrics[key] = value{m.Value, m.Unit}
		}
		if rep.FirstError != "" {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", w.name, rep.FirstError)
		}
		final.Correct = final.Correct && rep.Correct
		final.Attempted += rep.Attempted
		final.Failed += rep.Failed
	}
	line, err := json.Marshal(final)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !final.Correct {
		os.Exit(1)
	}
}

// summary is the JSON line that ends standard output. With several
// workloads, metric names are prefixed with the workload's.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// runWorkload sets up a fresh reviewd for w, verifies it, and measures it;
// with cfg.trace it then replays the same streams in-process.
func runWorkload(ctx context.Context, cfg config, bins binaries, w workload) (*report, error) {
	nproc := runtime.NumCPU()
	w.conns = min(w.conns, nproc)
	rep := &report{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, Host: fingerprint(), Diagnostic: map[string]float64{}}
	diag := rep.Diagnostic

	c, err := newCorpus(w)
	if err != nil {
		return nil, err
	}
	l := layout{dir: filepath.Join(cfg.work, w.name)}
	if err := writeInputs(c, l); err != nil {
		return nil, err
	}
	// The verifier's classifier trains during the set-ups: reviewd's boot
	// trains its own on one CPU and leaves the other idle.
	trained := trainInBackground()
	client := newClient(w.conns)
	defer client.CloseIdleConnections()
	srv, setupS, deltaOK, err := setUps(ctx, cfg.setupReps, bins, c, l, client, nproc, diag)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer srv.stop()

	streams := func(phase int) []*stream {
		out := make([]*stream, w.conns)
		for i := range out {
			out[i] = c.stream(cfg.seed, i, phase)
		}
		return out
	}
	// Warm-up traffic fills reviewd's caches; it lasts until the verifier's
	// classifier is trained too.
	var warm phaseResult
	var opt core.Option
	warmStreams := streams(phaseWarmup)
	for start := time.Now(); opt == nil || time.Since(start) < cfg.warmup; {
		warm.merge(drive(ctx, client, srv, c, warmStreams, slice, false, nil))
		select {
		case opt = <-trained:
		default:
		}
	}

	v := newVerifier(c, l, opt)
	var wr *releaseWriter
	if w.churn {
		wr = newReleaseWriter(c, l, deltaOK)
		ops := httpWriterOps(ctx, client, srv, c)
		for i := 0; i < preWindowWrites; i++ {
			if err := wr.step(ops); err != nil {
				return nil, err
			}
		}
		v.follow(wr, l)
		wr.last = time.Now()
	}
	bad, firstErr := verify(ctx, client, srv, v, c.stream(cfg.seed, 0, phaseMeasure), verifyRequests)
	rep.Attempted += verifyRequests
	rep.Failed += bad

	before, err := scrape(ctx, client, srv)
	if err != nil {
		return nil, err
	}
	win, cpu, burst := measure(ctx, client, srv, c, streams(phaseMeasure), cfg.window, wr, nproc)
	after, err := scrape(ctx, client, srv)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	for _, p := range []phaseResult{warm, win} {
		rep.Attempted += p.ok + p.failed + p.writes
		rep.Failed += p.failed + p.writeErr
		if firstErr == nil {
			firstErr = p.firstErr
		}
	}
	p50, p99, err := summarizeLatency(win.latMs, win.failed)
	if err != nil {
		return nil, err
	}
	window := win.elapsed.Seconds()
	speed := float64(burst) / float64(refBurst) // > 1 on a host slower than the reference
	diag["reviews_per_s"] = float64(win.reviews) / window
	diag["latency_p50_ms"] = p50
	diag["latency_p99_ms"] = p99
	rep.Metrics = []metric{
		{"reviews_per_s_norm", diag["reviews_per_s"] * speed, "reviews/s"},
		{"latency_p50_ms_norm", p50 / speed, "ms"},
		{"latency_p99_ms_norm", p99 / speed, "ms"},
		{"setup_s", setupS, "s"},
		{"server_rss_peak_mb", rss, "MB"},
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	diag["harness.calib_ms"] = ms(burst)
	diag["harness.client_cpu_share"] = cpu.Seconds() / (window * float64(nproc))
	diag["harness.requests_sent"] = float64(win.ok + win.failed)
	diag["harness.requests_failed"] = float64(win.failed)
	diag["registry.loads"] = delta(ctrLoads)
	diag["registry.delta_loads"] = delta(ctrDeltaLoads)
	diag["registry.evictions"] = delta(ctrEvictions)
	diag["registry.load_failures"] = delta(ctrLoadFailures)
	diag["registry.hit_ratio"] = 1 - ratio(delta(ctrLoads), delta(histLocalizeServed))
	if wr != nil {
		diag["writer.full_registrations"] = float64(wr.fulls)
		diag["writer.delta_registrations"] = float64(wr.deltas)
	}

	if cfg.trace {
		rtt, tfail := probeTransport(ctx, client, srv, w.conns, 2*time.Second)
		rep.Failed += tfail
		rep.Attempted += len(rtt) + tfail
		sort.Float64s(rtt)
		diag["transport.us_mean"] = mean(rtt)
		diag["transport.us_p99"] = percentile(rtt, 0, 0.99)

		srv.stop() // the replay gets the CPUs to itself
		tr, st, err := replay(c, l, opt, cfg.seed, deltaOK, newVerifier(c, l, opt))
		if err != nil {
			return nil, err
		}
		rep.Attempted += st.checked
		stats := spanStats(tr.spans)
		layerDiagnostics(diag, stats, st)
		rep.Metrics = perLayerMetrics(diag)
		if err := writeTrace(l.dir, tr, rep.Metrics, stats); err != nil {
			return nil, err
		}
		if w.name == "interactive" || w.name == "large_apps" {
			if err := writeTable15(l.dir, w.name, stats); err != nil {
				return nil, err
			}
		}
	}
	rep.Correct = rep.Failed == 0
	if firstErr != nil {
		rep.FirstError = firstErr.Error()
	}
	diag["failed_ratio"] = ratio(float64(rep.Failed), float64(rep.Attempted))
	return rep, writeReport(rep, l.dir)
}

// setUps runs reps measured set-ups, keeps the last one's reviewd running,
// and returns setup_s: the median set-up time, each scaled to the reference
// host by a calibration burst right after it with reviewd paused. The burst
// comes after, not before: before the first set-up the verifier's training
// has just started, and its garbage collection slows a burst.
func setUps(ctx context.Context, reps int, bins binaries, c *corpus, l layout, client *http.Client, nproc int, diag map[string]float64) (*server, float64, bool, error) {
	var srv *server
	var totals, scaled, boots, fullMs, deltaMs []float64
	deltaOK := true
	for i := 0; i < reps; i++ {
		if srv != nil {
			srv.stop()
			client.CloseIdleConnections()
		}
		var res setupResult
		var err error
		if srv, res, err = setUp(ctx, bins, c, l, client, nproc); err != nil {
			return nil, 0, false, err
		}
		srv.pause()
		burst := calibrate(nproc)
		srv.resume()
		totals = append(totals, res.total.Seconds())
		scaled = append(scaled, res.total.Seconds()*float64(refBurst)/float64(burst))
		boots = append(boots, res.boot.Seconds())
		fullMs = append(fullMs, res.compile.fullMs...)
		deltaMs = append(deltaMs, res.compile.deltaMs...)
		deltaOK = res.compile.deltaOK
	}
	diag["setup_raw_s"] = median(totals)
	diag["boot_s"] = median(boots)
	diag["compile.full_ms_mean"] = mean(fullMs)
	diag["compile.delta_ms_mean"] = mean(deltaMs)
	return srv, median(scaled), deltaOK, nil
}

// measure runs the timed window in slices with a calibration burst after
// each, so the bursts sample the host throughout the traffic. reviewd is
// paused during each burst. It returns the traffic, this process's CPU time
// during the traffic, and the mean burst.
func measure(ctx context.Context, client *http.Client, srv *server, c *corpus, streams []*stream, window time.Duration, wr *releaseWriter, nproc int) (phaseResult, time.Duration, time.Duration) {
	var win phaseResult
	var cpu, cal time.Duration
	slices := max(1, int(window/slice))
	for k := 0; k < slices; k++ {
		cpu0 := cpuTime()
		win.merge(drive(ctx, client, srv, c, streams, slice, true, wr))
		cpu += cpuTime() - cpu0
		srv.pause()
		cal += calibrate(nproc)
		srv.resume()
	}
	return win, cpu, cal / time.Duration(slices)
}

// writeReport writes rep as dir/result-e2e.json or result-trace.json.
func writeReport(rep *report, dir string) error {
	// A percentile that reached a failed request is +Inf, which JSON cannot
	// carry; the largest float stands in for it.
	for i, m := range rep.Metrics {
		if math.IsInf(m.Value, 1) {
			rep.Metrics[i].Value = math.MaxFloat64
		}
		rep.Diagnostic[m.Name] = rep.Metrics[i].Value
	}
	for k, v := range rep.Diagnostic {
		if math.IsInf(v, 1) {
			rep.Diagnostic[k] = math.MaxFloat64
		}
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	mode := "e2e"
	if rep.Trace {
		mode = "trace"
	}
	return os.WriteFile(filepath.Join(dir, "result-"+mode+".json"), append(out, '\n'), 0o644)
}

// layerSpans are the request-path spans reported with calls, mean and p99.
var layerSpans = []string{"request", "decode", "lease", "load_full", "classify", "static", "analyze", "localize", "rank", "encode"}

// layerDiagnostics folds the traced replay's spans and counters into diag.
func layerDiagnostics(diag map[string]float64, stats map[string]spanStat, st replayStats) {
	for name, s := range stats {
		diag[name+".calls"] = float64(s.Calls)
		diag[name+".us_mean"] = s.MeanUs
		diag[name+".us_p99"] = s.P99Us
		diag[name+".self_us_mean"] = s.SelfMeanUs
	}
	for _, name := range []string{"pool", "load_delta"} {
		diag[name+".calls"] = float64(stats[name].Calls)
	}
	n := st.counters
	diag["classify.error_share"] = ratio(float64(st.errorReviews), float64(st.reviews))
	diag["frontend.sentence_hit_ratio"] = ratio(float64(n[ctrAnalysisHits]), float64(n[ctrAnalysisHits]+n[ctrAnalysisMisses]))
	diag["frontend.phrase_hit_ratio"] = ratio(float64(n[ctrPhraseHits]), float64(n[ctrPhraseHits]+n[ctrPhraseMisses]))
	scanned := float64(n[ctrPruned] + n[ctrEvaluated])
	diag["kernel.prune_ratio"] = ratio(float64(n[ctrPruned]), scanned)
	diag["kernel.match_ratio"] = ratio(float64(n[ctrMatched]), float64(n[ctrEvaluated]))
	diag["kernel.rows_per_review"] = ratio(scanned, float64(st.errorReviews))
	diag["kernel.max_rows"] = float64(st.maxRows)
}

// perLayerMetrics lists, in BENCHMARK.json order, every per-layer metric.
func perLayerMetrics(diag map[string]float64) []metric {
	var out []metric
	add := func(name, unit string) { out = append(out, metric{name, diag[name], unit}) }
	for _, s := range layerSpans {
		add(s+".calls", "count")
		add(s+".us_mean", "us")
		add(s+".us_p99", "us")
	}
	for _, lz := range localizers {
		add("localize."+lz.name+".us_mean", "us")
		add("localize."+lz.name+".us_p99", "us")
	}
	add("transport.us_mean", "us")
	add("transport.us_p99", "us")
	add("classify.error_share", "ratio")
	add("frontend.sentence_hit_ratio", "ratio")
	add("frontend.phrase_hit_ratio", "ratio")
	add("kernel.prune_ratio", "ratio")
	add("kernel.match_ratio", "ratio")
	add("kernel.rows_per_review", "count")
	add("kernel.max_rows", "count")
	add("pool.calls", "count")
	add("load_delta.calls", "count")
	add("registry.hit_ratio", "ratio")
	add("registry.loads", "count")
	add("registry.delta_loads", "count")
	add("registry.evictions", "count")
	add("registry.load_failures", "count")
	add("compile.full_ms_mean", "ms")
	add("boot_s", "s")
	add("harness.calib_ms", "ms")
	add("harness.client_cpu_share", "ratio")
	add("harness.requests_sent", "count")
	add("harness.requests_failed", "count")
	return out
}
