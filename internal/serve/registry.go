// Package serve is reviewd's serving layer: a snapshot registry holding
// many apps' precomputed .snap images resident at once, and the HTTP
// daemon (server.go) that localizes reviews against them with admission
// control, per-request deadlines, panic recovery, and graceful shutdown.
//
// The registry's robustness contract: one corrupt snapshot never takes
// down the fleet (it is quarantined with re-probe backoff), memory stays
// under a byte budget (LRU eviction of idle snapshots), a re-registered
// app hot-swaps without dropping in-flight requests (the old snapshot
// serves until its last lease drains, then releases), and every failure
// surfaces as a typed error from errors.go.
package serve

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"reviewsolver/internal/apk"
	"reviewsolver/internal/core"
	"reviewsolver/internal/obs"
	"reviewsolver/internal/serve/faultinject"
)

// Quarantine re-probe backoff: after the first failed load the entry is
// probed again no sooner than quarantineBase later; each consecutive
// failure doubles the wait, capped at quarantineMax.
const (
	quarantineBase = time.Second
	quarantineMax  = 60 * time.Second
)

// Registry metric names (the server adds the per-endpoint ones).
const (
	metricRegistryApps     = "serve_registry_apps"
	metricRegistryResident = "serve_registry_resident"
	metricRegistryBytes    = "serve_registry_loaded_bytes"
	metricRegistryBudget   = "serve_registry_budget_bytes"

	metricLoads         = "serve_snapshot_loads_total"
	metricLoadFailures  = "serve_snapshot_load_failures_total"
	metricLoadCanceled  = "serve_snapshot_load_canceled_total"
	metricEvictions     = "serve_evictions_total"
	metricHotSwaps      = "serve_hotswaps_total"
	metricQuarantined   = "serve_quarantined_total"
	metricQuarRejects   = "serve_quarantine_rejects_total"
	metricReprobes      = "serve_quarantine_reprobes_total"
	metricQuarRecovered = "serve_quarantine_recovered_total"
	metricRetiredFreed  = "serve_retired_released_total"
)

// entryState is the lifecycle of one registered snapshot.
type entryState int

const (
	stateCold entryState = iota // registered, not resident
	stateLoading
	stateLive
	stateQuarantined
)

func (s entryState) String() string {
	switch s {
	case stateCold:
		return "cold"
	case stateLoading:
		return "loading"
	case stateLive:
		return "live"
	case stateQuarantined:
		return "quarantined"
	}
	return "unknown"
}

// entry is one registered app@version snapshot. All fields are guarded by
// the registry mutex except the immutable identity fields.
type entry struct {
	app, version string
	path         string // .snap file

	state entryState
	done  chan struct{} // singleflight: closed when a load attempt settles

	appIR  *apk.App
	solver *core.Solver
	pool   *core.Pool
	bytes  int64

	refs     int  // in-flight leases
	retired  bool // hot-swapped out; frees when refs drain
	lruElem  *list.Element
	loads    int64
	lastErr  string
	failures int       // consecutive load failures
	probeAt  time.Time // quarantine: earliest next probe
}

func (e *entry) key() string { return e.app + "@" + e.version }

// RegistryConfig configures a snapshot registry.
type RegistryConfig struct {
	// MaxBytes is the resident byte budget; past it, least-recently-used
	// idle snapshots unload. 0 means unlimited.
	MaxBytes int64
	// PoolWorkers sizes the per-snapshot batch pool (core.NewPool
	// convention: 0 = all CPUs).
	PoolWorkers int
	// LoadOptions apply to every snapshot load (classifier, observer).
	LoadOptions []core.Option
	// Injector is the fault-injection harness; nil injects nothing.
	Injector *faultinject.Injector
	// Metrics receives registry gauges and counters; nil disables them.
	Metrics *obs.Registry
	// Journal receives lifecycle events (load, evict, hot-swap, quarantine
	// transitions); nil disables the event journal.
	Journal *obs.Journal
	// Clock is the injectable time source for quarantine backoff and
	// journal timestamps; nil means time.Now.
	Clock func() time.Time
}

// Registry is the resident-snapshot table. Safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry // app@version → entry
	latest  map[string]string // app → most recently registered key
	lru     *list.List        // live entries, front = most recently used
	total   int64             // resident bytes

	budget      int64
	poolWorkers int
	loadOpts    []core.Option
	inj         *faultinject.Injector
	met         *obs.Registry
	journal     *obs.Journal
	now         func() time.Time // injectable clock for backoff tests
}

// NewRegistry builds an empty registry.
func NewRegistry(cfg RegistryConfig) *Registry {
	now := cfg.Clock
	if now == nil {
		now = time.Now
	}
	r := &Registry{
		entries:     make(map[string]*entry),
		latest:      make(map[string]string),
		lru:         list.New(),
		budget:      cfg.MaxBytes,
		poolWorkers: cfg.PoolWorkers,
		loadOpts:    cfg.LoadOptions,
		inj:         cfg.Injector,
		met:         cfg.Metrics,
		journal:     cfg.Journal,
		now:         now,
	}
	r.met.Gauge(metricRegistryBudget).Set(cfg.MaxBytes)
	return r
}

// note appends one lifecycle event to the registry journal (no-op without
// one), stamping it from the registry clock.
func (r *Registry) note(typ obs.EventType, app, version, detail string) {
	if r.journal == nil {
		return
	}
	r.journal.Record(typ, app, version, detail, r.now().UnixNano())
}

// Register adds (or hot-swaps) a snapshot served from a .snap file. The
// image is not opened here — the first request loads it lazily, so a bad
// file quarantines instead of failing registration.
func (r *Registry) Register(app, version, path string) {
	e := &entry{app: app, version: version, path: path}
	r.mu.Lock()
	defer r.mu.Unlock()
	key := e.key()
	if old := r.entries[key]; old != nil {
		r.retireLocked(old)
		r.met.Counter(metricHotSwaps).Add(1)
		r.note(obs.EventHotSwap, e.app, e.version, "")
	} else {
		r.note(obs.EventRegister, e.app, e.version, "")
	}
	r.entries[key] = e
	r.latest[e.app] = key
	r.met.Gauge(metricRegistryApps).Set(int64(len(r.entries)))
}

// retireLocked detaches a hot-swapped entry: new requests can no longer
// reach it, but current leases keep serving; its memory frees when the
// last lease releases (immediately if idle).
func (r *Registry) retireLocked(old *entry) {
	old.retired = true
	if old.lruElem != nil {
		r.lru.Remove(old.lruElem)
		old.lruElem = nil
	}
	if old.state == stateLive && old.refs == 0 {
		r.freeLocked(old)
	}
}

// freeLocked drops a resident snapshot's memory and accounting.
func (r *Registry) freeLocked(e *entry) {
	r.total -= e.bytes
	e.appIR, e.solver, e.pool = nil, nil, nil
	e.bytes = 0
	e.state = stateCold
	if e.retired {
		r.met.Counter(metricRetiredFreed).Add(1)
		r.note(obs.EventRetireFreed, e.app, e.version, "")
	}
	r.met.Gauge(metricRegistryBytes).Set(r.total)
	r.met.Gauge(metricRegistryResident).Set(int64(r.lru.Len()))
}

// Lease is one request's hold on a resident snapshot. Release it when the
// request finishes — hot-swap and eviction wait on lease drains.
type Lease struct {
	r *Registry
	e *entry

	// App is the snapshot's decoded app IR.
	App *apk.App
	// Solver serves single-review localization; safe for concurrent use.
	Solver *core.Solver
	// Pool serves batch localization through the cancellable corpus path.
	Pool *core.Pool
	// Version is the snapshot version actually served (resolves "latest").
	Version string
}

// Release returns the lease. Idempotence is the caller's job — release
// exactly once.
func (l *Lease) Release() {
	r, e := l.r, l.e
	r.mu.Lock()
	e.refs--
	if e.retired && e.refs == 0 && e.state == stateLive {
		r.freeLocked(e)
	}
	r.mu.Unlock()
}

// Acquire resolves app (+ optional version; empty means the most recently
// registered) to a resident snapshot, loading it on first use. Exactly one
// goroutine loads a given entry at a time (singleflight); concurrent
// requesters wait for that load or their own deadline, whichever first.
// Failure modes are the typed errors of errors.go.
func (r *Registry) Acquire(ctx context.Context, app, version string) (*Lease, error) {
	for {
		r.mu.Lock()
		key := app + "@" + version
		if version == "" {
			var ok bool
			if key, ok = r.latest[app]; !ok {
				r.mu.Unlock()
				return nil, fmt.Errorf("%w: %q", ErrUnknownApp, app)
			}
		}
		e := r.entries[key]
		if e == nil {
			r.mu.Unlock()
			return nil, fmt.Errorf("%w: %q", ErrUnknownApp, key)
		}

		switch e.state {
		case stateLive:
			e.refs++
			r.touchLocked(e)
			lease := &Lease{r: r, e: e, App: e.appIR, Solver: e.solver, Pool: e.pool, Version: e.version}
			r.mu.Unlock()
			return lease, nil

		case stateLoading:
			done := e.done
			r.mu.Unlock()
			select {
			case <-done:
				continue // re-examine the settled state
			case <-ctx.Done():
				return nil, fmt.Errorf("%w: while waiting for snapshot load: %w", ErrDeadline, ctx.Err())
			}

		case stateQuarantined:
			if wait := e.probeAt.Sub(r.now()); wait > 0 {
				r.met.Counter(metricQuarRejects).Add(1)
				last := e.lastErr
				r.mu.Unlock()
				return nil, &RetryAfterError{
					Err:   fmt.Errorf("%w: %s (last error: %s)", ErrQuarantined, key, last),
					After: wait,
				}
			}
			// Backoff elapsed: this request probes the snapshot again.
			r.met.Counter(metricReprobes).Add(1)
			r.note(obs.EventReprobe, e.app, e.version, "")
		case stateCold:
		}

		e.state = stateLoading
		e.done = make(chan struct{})
		r.mu.Unlock()
		if err := r.load(ctx, e); err != nil {
			return nil, err
		}
		// Loaded (or the entry was retired mid-load) — loop to acquire
		// through the table again.
	}
}

// load performs one singleflight load attempt for e (which is in
// stateLoading with a fresh done channel). It settles the entry's state
// under the lock and closes done.
func (r *Registry) load(ctx context.Context, e *entry) error {
	key := e.key()
	var (
		snap *core.Snapshot
		app  *apk.App
		size int64
	)
	err := r.inj.Fire(ctx, faultinject.PointSnapshotLoad, key)
	if err == nil {
		err = ctx.Err() // the client may have gone away during a slow load
	}
	if err == nil {
		var img []byte
		img, err = os.ReadFile(e.path)
		if err == nil {
			// The entry's solvers carry its app identity so per-app labeled
			// pipeline counters land in the shared registry.
			opts := append(append([]core.Option(nil), r.loadOpts...), core.WithAppLabel(e.app))
			// An entry's cost is the retained image: the loaded snapshot's
			// float blocks and strings are views into it.
			snap, app, err = core.LoadSnapshotBytes(img, opts...)
			size = int64(len(img))
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	defer close(e.done)

	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// The requester abandoned the load; the snapshot itself is not
			// suspect. Back to cold so the next request retries cleanly.
			e.state = stateCold
			r.met.Counter(metricLoadCanceled).Add(1)
			return fmt.Errorf("%w: snapshot load abandoned: %w", ErrDeadline, err)
		}
		e.state = stateQuarantined
		e.failures++
		e.lastErr = err.Error()
		e.probeAt = r.now().Add(quarantineBackoff(e.failures))
		r.met.Counter(metricLoadFailures).Add(1)
		r.met.Counter(metricQuarantined).Add(1)
		r.note(obs.EventLoadFailure, e.app, e.version, err.Error())
		r.note(obs.EventQuarantineEnter, e.app, e.version, "")
		return fmt.Errorf("%w: %s: %w", ErrSnapshotLoad, key, err)
	}

	if e.retired {
		// Hot-swapped away while loading; nobody can lease it, so drop the
		// work on the floor and let the caller re-acquire the replacement.
		e.state = stateCold
		return nil
	}
	e.appIR = app
	e.solver = core.NewWithSnapshot(snap)
	e.pool = core.NewPoolWithSnapshot(r.poolWorkers, snap)
	e.bytes = size
	e.loads++
	if e.failures > 0 {
		e.failures = 0
		r.met.Counter(metricQuarRecovered).Add(1)
		r.note(obs.EventQuarantineExit, e.app, e.version, "")
	}
	e.state = stateLive
	r.total += size
	r.lruInsertLocked(e)
	r.evictLocked()
	r.met.Counter(metricLoads).Add(1)
	r.note(obs.EventLoad, e.app, e.version, "")
	r.met.Gauge(metricRegistryBytes).Set(r.total)
	r.met.Gauge(metricRegistryResident).Set(int64(r.lru.Len()))
	return nil
}

// quarantineBackoff doubles from quarantineBase per consecutive failure,
// capped at quarantineMax.
func quarantineBackoff(failures int) time.Duration {
	if failures < 1 {
		failures = 1
	}
	shift := failures - 1
	if shift > 30 {
		shift = 30
	}
	d := quarantineBase << shift
	if d > quarantineMax || d <= 0 {
		d = quarantineMax
	}
	return d
}

func (r *Registry) lruInsertLocked(e *entry) {
	e.lruElem = r.lru.PushFront(e)
}

func (r *Registry) touchLocked(e *entry) {
	if e.lruElem != nil {
		r.lru.MoveToFront(e.lruElem)
	}
}

// evictLocked unloads least-recently-used idle snapshots until the
// resident total fits the budget. Leased entries are skipped (their memory
// is pinned by in-flight requests), and the most recently used entry is
// never evicted — a snapshot larger than the whole budget would otherwise
// thrash load→evict→load forever.
func (r *Registry) evictLocked() {
	if r.budget <= 0 {
		return
	}
	el := r.lru.Back()
	for r.total > r.budget && el != nil && el != r.lru.Front() {
		prev := el.Prev()
		e := el.Value.(*entry)
		if e.refs == 0 && e.state == stateLive {
			r.lru.Remove(el)
			e.lruElem = nil
			r.freeLocked(e)
			r.met.Counter(metricEvictions).Add(1)
			r.note(obs.EventEvict, e.app, e.version, "")
		}
		el = prev
	}
}

// ResidentBytes reports the current resident total (for tests and /v1/apps).
func (r *Registry) ResidentBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// AppStatus is one registry row, as exposed by /v1/apps.
type AppStatus struct {
	App      string `json:"app"`
	Version  string `json:"version"`
	State    string `json:"state"`
	Latest   bool   `json:"latest"`
	Bytes    int64  `json:"bytes"`
	Releases int    `json:"releases"`
	Loads    int64  `json:"loads"`
	Failures int    `json:"failures,omitempty"`
	LastErr  string `json:"last_error,omitempty"`
}

// Apps lists every registered snapshot, sorted by app then version.
func (r *Registry) Apps() []AppStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]AppStatus, 0, len(r.entries))
	for key, e := range r.entries {
		st := AppStatus{
			App:      e.app,
			Version:  e.version,
			State:    e.state.String(),
			Latest:   r.latest[e.app] == key,
			Bytes:    e.bytes,
			Loads:    e.loads,
			Failures: e.failures,
			LastErr:  e.lastErr,
		}
		if e.appIR != nil {
			st.Releases = len(e.appIR.Releases)
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].App != out[j].App {
			return out[i].App < out[j].App
		}
		return out[i].Version < out[j].Version
	})
	return out
}

// RetryAfterError decorates a typed serving error with a client backoff
// hint, surfaced as the Retry-After header.
type RetryAfterError struct {
	Err   error
	After time.Duration
}

func (e *RetryAfterError) Error() string { return e.Err.Error() }

// Unwrap exposes the wrapped typed error to errors.Is.
func (e *RetryAfterError) Unwrap() error { return e.Err }

// RetryAfterHint extracts the backoff hint, if the error carries one.
func RetryAfterHint(err error) (time.Duration, bool) {
	var ra *RetryAfterError
	if errors.As(err, &ra) {
		return ra.After, true
	}
	return 0, false
}
