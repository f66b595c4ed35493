package core

import (
	"runtime"
	"sync"

	"reviewsolver/internal/apk"
)

// Snapshot is the immutable, concurrency-safe precomputed matching state of
// ReviewSolver: the full framework-catalog phrase embeddings (the dominant
// Algorithm 1 cost), the SDK lookups, and the per-release §3.3 static
// extraction — including GUI/widget label vectors and Code2vec
// method-summary vectors, which are embedded at extraction time rather than
// re-embedded on every query.
//
// A Snapshot is computed once and then shared by reference across any
// number of solvers (see NewWithSnapshot) and pool workers (see Pool). Its
// immutability contract:
//
//   - the catalog phrase-vector table is built eagerly at construction and
//     never written again;
//   - per-release StaticInfo values are built exactly once (a duplicate
//     request for a release in flight blocks until the first extraction
//     finishes) and are read-only afterwards;
//   - the underlying components (catalog, embedding model, Q&A index,
//     classifier, summarizer) are read-only at query time — the embedding
//     model's internal memo cache is lock-guarded and deterministic.
//
// Memory model: one snapshot costs one catalog embedding table plus one
// StaticInfo per distinct release, independent of the worker count — an
// N-worker pool no longer pays N× the warm-up or N× the memory.
type Snapshot struct {
	// solver is the frozen template whose components every snapshot-backed
	// solver shares. Its private caches are retired (nil) so that all reads
	// route back through the snapshot.
	solver *Solver

	// catalogVecs is the eagerly built full-catalog phrase table: per-API
	// entries plus the flattened scan matrix with its prescreen sketch.
	catalogVecs *catalogTable

	mu     sync.Mutex
	static map[*apk.Release]*staticEntry
}

// staticEntry single-flights the §3.3 extraction of one release.
type staticEntry struct {
	once sync.Once
	info *StaticInfo
}

// NewSnapshot builds a snapshot from the same options New accepts,
// precomputing the catalog phrase embeddings eagerly. Use Precompute /
// PrecomputeApp to also pay the per-release extraction cost up front.
func NewSnapshot(opts ...Option) *Snapshot {
	s := New(opts...)
	sn := &Snapshot{
		catalogVecs: s.buildCatalogVecs(),
		static:      make(map[*apk.Release]*staticEntry),
	}
	// Retire the template's private caches; every read now routes through
	// the snapshot, and the template is never mutated again.
	s.staticCache = nil
	s.catalogVecCache = nil
	s.snap = sn
	sn.solver = s
	return sn
}

// NewWithSnapshot returns a Solver backed by the shared snapshot. The
// returned solver owns no mutable caches — any number of snapshot-backed
// solvers may run concurrently. Options apply to the returned solver only;
// WithWordModel detaches the solver from the snapshot entirely (the
// precomputed embeddings would not match the new model).
func NewWithSnapshot(sn *Snapshot, opts ...Option) *Solver {
	s := *sn.solver
	for _, opt := range opts {
		opt(&s)
	}
	return &s
}

// StaticFor returns the §3.3 extraction for a release, computing it exactly
// once per release across all sharers. Safe for concurrent use.
func (sn *Snapshot) StaticFor(r *apk.Release) *StaticInfo {
	sn.mu.Lock()
	e := sn.static[r]
	if e == nil {
		e = &staticEntry{}
		sn.static[r] = e
	}
	sn.mu.Unlock()
	e.once.Do(func() { e.info = sn.solver.ExtractStatic(r) })
	return e.info
}

// Precompute eagerly extracts the static information of the given releases,
// fanning out across CPUs. It is optional — StaticFor reads through on
// demand — but front-loads the warm-up so that serving latency is flat.
func (sn *Snapshot) Precompute(releases ...*apk.Release) {
	workers := runtime.NumCPU()
	if workers > len(releases) {
		workers = len(releases)
	}
	if workers <= 1 {
		for _, r := range releases {
			sn.StaticFor(r)
		}
		return
	}
	jobs := make(chan *apk.Release)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range jobs {
				sn.StaticFor(r)
			}
		}()
	}
	for _, r := range releases {
		jobs <- r
	}
	close(jobs)
	wg.Wait()
}

// PrecomputeApp precomputes every release of an app.
func (sn *Snapshot) PrecomputeApp(app *apk.App) {
	sn.Precompute(app.Releases...)
}

// CatalogSize returns the number of framework APIs whose phrase embeddings
// the snapshot precomputed.
func (sn *Snapshot) CatalogSize() int { return len(sn.catalogVecs.entries) }
