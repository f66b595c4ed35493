package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"reviewsolver/internal/apk"
	"reviewsolver/internal/core"
	"reviewsolver/internal/ctxinfo"
	"reviewsolver/internal/obs"
	"reviewsolver/internal/serve"
)

// Traced replay sizes: requests per single-review workload, batches for
// triage_batch.
const (
	replaySingles = 20000
	replayBatches = 300
)

// localizers are the nine context localizers with their span names, in the
// order the pipeline runs them.
var localizers = []struct {
	name string
	ctx  ctxinfo.Type
}{
	{"app_specific", ctxinfo.AppSpecificTask},
	{"gui", ctxinfo.GUI},
	{"error_message", ctxinfo.ErrorMessage},
	{"opening_app", ctxinfo.OpeningApp},
	{"registration", ctxinfo.RegisteringAccount},
	{"api_uri_intent", ctxinfo.APIURIIntent},
	{"general_task", ctxinfo.GeneralTask},
	{"exception", ctxinfo.Exception},
	{"update", ctxinfo.UpdatingApp},
}

// table15Order is the paper's Table 15 row order.
var table15Order = []ctxinfo.Type{
	ctxinfo.GeneralTask, ctxinfo.AppSpecificTask, ctxinfo.APIURIIntent,
	ctxinfo.OpeningApp, ctxinfo.RegisteringAccount, ctxinfo.ErrorMessage,
	ctxinfo.GUI, ctxinfo.UpdatingApp, ctxinfo.Exception,
}

// Observer counters the replay reads around each request span.
const (
	ctrAnalysisHits    = "analysis_cache_hits_total"
	ctrAnalysisMisses  = "analysis_cache_misses_total"
	ctrPhraseHits      = "phrase_cache_hits_total"
	ctrPhraseMisses    = "phrase_cache_misses_total"
	ctrPruned          = "prescreen_pruned_total"
	ctrEvaluated       = "prescreen_evaluated_total"
	ctrMatched         = "prescreen_matched_total"
	ctrLoads           = "serve_snapshot_loads_total"
	ctrDeltaLoads      = "serve_snapshot_delta_loads_total"
	ctrEvictions       = "serve_evictions_total"
	ctrLoadFailures    = "serve_snapshot_load_failures_total"
	histLocalizeServed = "serve_http_localize_ns|count"
)

var requestCounters = []string{ctrAnalysisHits, ctrAnalysisMisses, ctrPhraseHits, ctrPhraseMisses, ctrPruned, ctrEvaluated, ctrMatched}

// tracer keeps spans in memory; ids are 1-based indices into spans.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) start(req int64, name string, parent int64) int64 {
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Req: req, Name: name, Parent: parent, Start: int64(time.Since(t.t0))})
	return int64(len(t.spans))
}

func (t *tracer) end(id int64) { t.spans[id-1].End = int64(time.Since(t.t0)) }

// replayStats are the counts the traced replay gathers beside its spans.
type replayStats struct {
	reviews, errorReviews int
	counters              map[string]int64 // deltas over request spans
	maxRows               int
	checked               int
}

// replay runs a workload's request streams in-process, calling each
// layer's public function in the order reviewd's localize handler does,
// with a span around every call. Work outside the request span attributes
// batch requests per review and times each localizer on its own.
func replay(c *corpus, l layout, opt core.Option, seed int64, deltaOK bool, v *verifier) (*tracer, replayStats, error) {
	met := obs.NewRegistry()
	reg := serve.NewRegistry(serve.RegistryConfig{
		MaxBytes:    c.w.maxBytes,
		LoadOptions: []core.Option{opt, core.WithObserver(obs.NewRecorder(met, nil))},
		Metrics:     met,
	})
	for i, a := range c.apps {
		reg.Register(a.pkg, "v1", l.image(i))
	}
	ctx := context.Background()
	var wr *releaseWriter
	var ops writerOps
	if c.w.churn {
		wr = newReleaseWriter(c, l, deltaOK)
		pkg := c.apps[wr.app].pkg
		ops = writerOps{
			register: func(version, path string) error { reg.Register(pkg, version, path); return nil },
			touch: func(version string) error {
				lease, err := reg.Acquire(ctx, pkg, version)
				if err != nil {
					return err
				}
				lease.Release()
				return nil
			},
		}
		for i := 0; i < preWindowWrites; i++ {
			if err := wr.step(ops); err != nil {
				return nil, replayStats{}, err
			}
		}
		v.follow(wr, l)
	}

	conns := c.w.conns
	streams := make([]*stream, conns)
	for i := range streams {
		streams[i] = c.stream(seed, i, phaseMeasure)
	}
	total := replaySingles
	if c.w.batch > 1 {
		total = replayBatches
	}
	checks := verifyRequests
	if c.w.churn {
		checks = min(checks, churnRequests)
	}

	tr := &tracer{t0: time.Now(), spans: make([]span, 0, 16*total)}
	st := replayStats{counters: map[string]int64{}}
	for k := 0; k < total; k++ {
		if wr != nil && k > 0 && k%churnRequests == 0 {
			if err := wr.step(ops); err != nil {
				return nil, st, err
			}
		}
		r := streams[k%conns].next()
		before := readCounters(met)
		out, err := tracedRequest(ctx, tr, int64(k+1), reg, met, c.bodies[r.app][r.body], &st)
		if err != nil {
			return nil, st, fmt.Errorf("replay request %d: %w", k, err)
		}
		after := readCounters(met)
		for name, n := range after {
			st.counters[name] += n - before[name]
		}
		if k < checks {
			want, err := v.expected(r)
			if err != nil {
				return nil, st, err
			}
			if !bytes.Equal(out, want) {
				return nil, st, fmt.Errorf("replay request %d (%s) differs from the direct solver:\n  %.300s\nwant\n  %.300s", k, c.apps[r.app].pkg, out, want)
			}
			st.checked++
		}
	}
	return tr, st, nil
}

func readCounters(met *obs.Registry) map[string]int64 {
	out := make(map[string]int64, len(requestCounters))
	for _, name := range requestCounters {
		out[name] = met.Counter(name).Value()
	}
	return out
}

// pipelineState is what one review's localization needs beyond its text,
// kept for the per-localizer pass.
type pipelineState struct {
	solver            *core.Solver
	ra                *core.ReviewAnalysis
	info              *core.StaticInfo
	previous, current *apk.Release
}

// tracedRequest serves one localize body the way the handler does and
// returns the exact response bytes.
func tracedRequest(ctx context.Context, tr *tracer, rid int64, reg *serve.Registry, met *obs.Registry, body []byte, st *replayStats) ([]byte, error) {
	root := tr.start(rid, "request", 0)

	sp := tr.start(rid, "decode", root)
	var req serve.LocalizeRequest
	err := json.Unmarshal(body, &req)
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	loads, deltas := met.Counter(ctrLoads).Value(), met.Counter(ctrDeltaLoads).Value()
	sp = tr.start(rid, "lease", root)
	lease, err := reg.Acquire(ctx, req.App, req.Version)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if met.Counter(ctrLoads).Value() > loads {
		name := "load_full"
		if met.Counter(ctrDeltaLoads).Value() > deltas {
			name = "load_delta"
		}
		ls := tr.start(rid, name, sp)
		tr.spans[ls-1].Start = tr.spans[sp-1].Start
		tr.spans[ls-1].End = tr.spans[sp-1].End
	}
	solver, app := lease.Solver, lease.App
	inputs, err := reviewInputs(req)
	if err != nil {
		lease.Release()
		return nil, err
	}

	var results []*core.Result
	var states []pipelineState
	if req.Review != "" {
		res, ps := tracedPipeline(tr, rid, root, solver, app, inputs[0].Text, inputs[0].PublishedAt)
		results, states = []*core.Result{res}, []pipelineState{ps}
	} else {
		in := make(chan core.ReviewInput, len(inputs))
		for _, ri := range inputs {
			in <- ri
		}
		close(in)
		sp = tr.start(rid, "pool", root)
		results = make([]*core.Result, len(inputs))
		for cr := range lease.Pool.LocalizeCorpusContext(ctx, app, in) {
			results[cr.Index] = cr.Result
		}
		tr.end(sp)
	}

	sp = tr.start(rid, "encode", root)
	resp := serve.LocalizeResponse{App: req.App, Version: lease.Version}
	for i, res := range results {
		resp.Results = append(resp.Results, serve.ResultToJSON(inputs[i].Text, res))
	}
	out, err := json.Marshal(resp)
	tr.end(sp)
	lease.Release()
	tr.end(root)
	if err != nil {
		return nil, err
	}

	for _, res := range results {
		st.reviews++
		if res.IsError {
			st.errorReviews++
		}
	}
	if req.Review == "" {
		// Batch: the pool ran the layers on its workers; time them per
		// review, one at a time, outside the request span.
		for _, inp := range inputs {
			root := tr.start(rid, "review", 0)
			_, ps := tracedPipeline(tr, rid, root, solver, app, inp.Text, inp.PublishedAt)
			tr.end(root)
			states = append(states, ps)
		}
	}
	for _, ps := range states {
		if ps.ra == nil {
			continue
		}
		st.maxRows = max(st.maxRows, ps.info.MethodRows(), ps.solver.CatalogRows())
		root := tr.start(rid, "by_context", 0)
		for _, lz := range localizers {
			sp := tr.start(rid, "localize."+lz.name, root)
			ps.solver.LocalizeByContext(lz.ctx, ps.ra, ps.info, ps.previous, ps.current)
			tr.end(sp)
		}
		tr.end(root)
	}
	return append(out, '\n'), nil
}

// reviewInputs are a request's reviews with their publication times parsed
// as the handler parses them.
func reviewInputs(req serve.LocalizeRequest) ([]core.ReviewInput, error) {
	reviews := req.Reviews
	if req.Review != "" {
		reviews = []serve.BatchReview{{Review: req.Review, PublishedAt: req.PublishedAt}}
	}
	out := make([]core.ReviewInput, len(reviews))
	for i, br := range reviews {
		when, err := time.Parse(time.RFC3339, br.PublishedAt)
		if err != nil {
			return nil, err
		}
		out[i] = core.ReviewInput{Text: br.Review, PublishedAt: when}
	}
	return out, nil
}

// tracedPipeline is the solver's single-review pipeline assembled from its
// public layers: classify, pick the release, static extraction, analysis,
// the nine localizers, and ranking.
func tracedPipeline(tr *tracer, rid, parent int64, solver *core.Solver, app *apk.App, text string, when time.Time) (*core.Result, pipelineState) {
	ps := pipelineState{solver: solver}
	sp := tr.start(rid, "classify", parent)
	res := &core.Result{IsError: solver.IsErrorReview(text)}
	tr.end(sp)
	if !res.IsError {
		return res, ps
	}
	current, previous, ok := app.ReleaseBefore(when)
	if !ok {
		if len(app.Releases) == 0 {
			return res, ps
		}
		current, previous = app.Releases[0], nil
	}
	res.Release = current

	sp = tr.start(rid, "static", parent)
	info := solver.StaticFor(current)
	tr.end(sp)

	sp = tr.start(rid, "analyze", parent)
	res.Analysis = solver.AnalyzeReview(text)
	tr.end(sp)

	sp = tr.start(rid, "localize", parent)
	res.Mappings = solver.Localize(res.Analysis, info, previous, current)
	tr.end(sp)

	sp = tr.start(rid, "rank", parent)
	res.Ranked = core.RankClasses(res.Mappings, info.Graph, core.TopN)
	tr.end(sp)

	ps.ra, ps.info, ps.previous, ps.current = res.Analysis, info, previous, current
	return res, ps
}

// MarshalJSON writes a span as [id, req, name, parent, start_ns, end_ns].
func (s span) MarshalJSON() ([]byte, error) {
	return json.Marshal([]any{s.ID, s.Req, s.Name, s.Parent, s.Start, s.End})
}

// writeTrace writes every span plus the per-layer metrics and span
// summaries (self time included) to dir/trace.json.
func writeTrace(dir string, tr *tracer, metrics []metric, stats map[string]spanStat) error {
	data, err := json.Marshal(struct {
		Metrics    []metric            `json:"metrics"`
		Layers     map[string]spanStat `json:"layers"`
		SpanFields []string            `json:"span_fields"`
		Spans      []span              `json:"spans"`
	}{metrics, stats, []string{"id", "req", "name", "parent", "start_ns", "end_ns"}, tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace.json"), data, 0o644)
}

// writeTable15 writes the mean time per review of each localizer in the
// paper's Table 15 row order.
func writeTable15(dir, workload string, stats map[string]spanStat) error {
	names := map[ctxinfo.Type]string{}
	for _, lz := range localizers {
		names[lz.ctx] = lz.name
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "# Table 15: average localization time per context type (%s)\n\n", workload)
	fmt.Fprintln(&b, "| Context | Average time per review (µs) | Reviews |")
	fmt.Fprintln(&b, "|---|---|---|")
	for _, t := range table15Order {
		s := stats["localize."+names[t]]
		fmt.Fprintf(&b, "| %s | %.2f | %d |\n", t, s.MeanUs, s.Calls)
	}
	return os.WriteFile(filepath.Join(dir, "table15.md"), b.Bytes(), 0o644)
}
