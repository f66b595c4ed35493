package core

import (
	"context"
	"runtime"
	"sync"
	"time"

	"reviewsolver/internal/apk"
	"reviewsolver/internal/obs"
)

// ReviewInput is one review to localize in a batch.
type ReviewInput struct {
	// Text is the raw review.
	Text string
	// PublishedAt is the review's publication time.
	PublishedAt time.Time
}

// Pool localizes review batches concurrently. All workers share one
// immutable Snapshot — the catalog embeddings and per-release static
// extraction are computed once, not once per worker — so pool memory and
// warm-up cost are flat in the worker count. Results are returned in input
// order regardless of completion order.
type Pool struct {
	snap    *Snapshot
	solver  *Solver
	workers int
}

// NewPool builds a pool of n workers sharing one Snapshot constructed from
// the options. n == 0 means runtime.NumCPU() — the default for saturating
// the machine. Negative n requests a single worker (strictly sequential
// draining); it is accepted so callers can compute worker counts without
// guarding against underflow.
func NewPool(n int, opts ...Option) *Pool {
	return NewPoolWithSnapshot(n, NewSnapshot(opts...))
}

// NewPoolWithSnapshot builds a pool over an existing shared snapshot,
// letting several pools (or pools plus standalone solvers) reuse the same
// precomputed state. n follows the NewPool convention.
func NewPoolWithSnapshot(n int, sn *Snapshot) *Pool {
	return &Pool{
		snap:    sn,
		solver:  NewWithSnapshot(sn),
		workers: normalizeWorkers(n),
	}
}

// normalizeWorkers maps a requested worker count to an effective one:
// 0 means runtime.NumCPU(), negative means strictly sequential.
func normalizeWorkers(n int) int {
	switch {
	case n == 0:
		return runtime.NumCPU()
	case n < 0:
		return 1
	default:
		return n
	}
}

// Size returns the number of workers.
func (p *Pool) Size() int { return p.workers }

// Snapshot returns the shared precomputed state backing the pool.
func (p *Pool) Snapshot() *Snapshot { return p.snap }

// WithObserver installs a telemetry recorder on the pool's shared solver.
// Must be called before Localize; the pool then reports job counters and
// queue/worker occupancy gauges alongside the per-review pipeline metrics.
func (p *Pool) WithObserver(rec *obs.Recorder) *Pool {
	p.solver.rec = rec
	return p
}

// Localize runs the full pipeline over the batch and returns one Result per
// input, in input order. All workers exit before Localize returns. Localize
// is itself safe to call concurrently: every worker reads through the
// shared snapshot.
func (p *Pool) Localize(app *apk.App, reviews []ReviewInput) []*Result {
	results, _ := p.localize(app, reviews, false)
	return results
}

// LocalizeTraced is Localize plus one explain trace per review (aligned
// with the results slice). Each trace additionally records the pool
// occupancy — queue depth and busy workers — observed when a worker picked
// the review up; those two fields are scheduling-dependent, everything else
// in the trace is deterministic.
func (p *Pool) LocalizeTraced(app *apk.App, reviews []ReviewInput) ([]*Result, []*obs.ReviewTrace) {
	return p.localize(app, reviews, true)
}

func (p *Pool) localize(app *apk.App, reviews []ReviewInput, traced bool) ([]*Result, []*obs.ReviewTrace) {
	results := make([]*Result, len(reviews))
	var traces []*obs.ReviewTrace
	if traced {
		traces = make([]*obs.ReviewTrace, len(reviews))
	}
	if len(reviews) == 0 {
		return results, traces
	}
	rec := p.solver.rec
	queued := rec.Gauge(metricPoolQueueDepth)
	busy := rec.Gauge(metricPoolBusy)
	rec.Counter(metricPoolJobs).Add(int64(len(reviews)))
	queued.Add(int64(len(reviews)))
	workers := p.workers
	if workers > len(reviews) {
		workers = len(reviews)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				queued.Add(-1)
				busy.Add(1)
				if traced {
					tr := obs.NewReviewTrace(reviews[i].Text)
					tr.Pool = &obs.PoolTrace{
						Workers:     p.workers,
						QueueDepth:  int(queued.Value()),
						BusyWorkers: int(busy.Value()),
					}
					traces[i] = tr
					results[i] = p.solver.localizeReview(app, reviews[i].Text, reviews[i].PublishedAt, tr)
				} else {
					results[i] = p.solver.LocalizeReview(app, reviews[i].Text, reviews[i].PublishedAt)
				}
				busy.Add(-1)
			}
		}()
	}
	for i := range reviews {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	p.solver.publishFrontendGauges()
	return results, traces
}

// CorpusResult pairs a localization result with the input-order index of its
// review.
type CorpusResult struct {
	Index  int
	Result *Result
}

// LocalizeCorpus streams a review corpus through the pool: reviews are read
// from the input channel as workers free up, and results are emitted on the
// returned channel in input order. Memory stays bounded by the worker count
// — at most ~2× workers results are in flight (completed-but-unemitted
// results wait in the reorder buffer, which backpressures the workers via
// the bounded dones channel) — so corpora far larger than RAM can stream
// through. The returned channel is closed after the last result.
func (p *Pool) LocalizeCorpus(app *apk.App, reviews <-chan ReviewInput) <-chan CorpusResult {
	return p.LocalizeCorpusContext(context.Background(), app, reviews)
}

// LocalizeCorpusContext is LocalizeCorpus under a context. When ctx ends,
// the stream shuts down promptly: the feeder stops reading reviews, every
// worker exits after (at most) the review it is currently localizing, and
// the output channel closes — even if the consumer has walked away and no
// longer drains it. No goroutine outlives the cancellation (property-tested
// in pool_ctx_test.go). With an uncancelled context the emitted results are
// exactly those of LocalizeCorpus.
func (p *Pool) LocalizeCorpusContext(ctx context.Context, app *apk.App, reviews <-chan ReviewInput) <-chan CorpusResult {
	out := make(chan CorpusResult, p.workers)
	rec := p.solver.rec
	queued := rec.Gauge(metricPoolQueueDepth)
	busy := rec.Gauge(metricPoolBusy)
	done := ctx.Done()

	type job struct {
		index  int
		review ReviewInput
	}
	jobs := make(chan job)
	dones := make(chan CorpusResult, p.workers)

	var wg sync.WaitGroup
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				queued.Add(-1)
				busy.Add(1)
				res := p.solver.LocalizeReview(app, j.review.Text, j.review.PublishedAt)
				busy.Add(-1)
				// The dones buffer can be full if the reorderer already
				// quit on cancellation; never block past ctx.
				select {
				case dones <- CorpusResult{Index: j.index, Result: res}:
				case <-done:
					return
				}
			}
		}()
	}

	// Feeder: assign input-order indices as reviews arrive, bailing out as
	// soon as ctx ends (both while waiting for input and while handing a
	// job to a busy worker set).
	go func() {
	feed:
		for i := 0; ; i++ {
			var (
				r  ReviewInput
				ok bool
			)
			select {
			case r, ok = <-reviews:
				if !ok {
					break feed
				}
			case <-done:
				break feed
			}
			rec.Counter(metricPoolJobs).Add(1)
			queued.Add(1)
			select {
			case jobs <- job{index: i, review: r}:
			case <-done:
				queued.Add(-1)
				break feed
			}
		}
		close(jobs)
		wg.Wait()
		close(dones)
	}()

	// Reorderer: emit completed results in input order. On cancellation it
	// stops emitting and returns; the workers cannot deadlock behind it
	// because their dones sends also select on ctx.
	go func() {
		defer close(out)
		pending := make(map[int]CorpusResult, 2*p.workers)
		next := 0
		for cr := range dones {
			pending[cr.Index] = cr
			for {
				ready, ok := pending[next]
				if !ok {
					break
				}
				select {
				case out <- ready:
				case <-done:
					return
				}
				delete(pending, next)
				next++
			}
		}
		p.solver.publishFrontendGauges()
	}()
	return out
}
