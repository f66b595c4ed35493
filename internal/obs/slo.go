package obs

import (
	"encoding/json"
	"math"
	"sort"
	"sync"
	"time"
)

// SLO defaults. A 60-second window in 60 one-second buckets tracks the
// recent past with per-second resolution; the availability objective is
// "three nines", and the latency objective is "99% of requests under
// 500ms". All four are overridable per tracker.
const (
	DefaultSLOWindow       = time.Minute
	DefaultSLOBuckets      = 60
	DefaultSLOAvailability = 0.999
	DefaultSLOLatencyNs    = int64(500 * time.Millisecond)
	DefaultSLOLatencyGoal  = 0.99
)

// SLOConfig configures a tracker. Zero values get the defaults above; Now
// is the injectable clock (nil = time.Now) that makes window arithmetic —
// and therefore the whole fleet digest — deterministic under a fake clock.
type SLOConfig struct {
	// Window is the rolling evaluation window.
	Window time.Duration
	// Buckets is how many fixed-width time buckets tile the window.
	Buckets int
	// Availability is the fraction of requests that must not fail
	// (5xx-class outcomes spend error budget; sheds are tracked separately).
	Availability float64
	// LatencyObjectiveNs is the "fast enough" per-request latency bound.
	LatencyObjectiveNs int64
	// LatencyGoal is the fraction of requests that must be fast enough.
	LatencyGoal float64
	// Now is the clock; nil means time.Now.
	Now func() time.Time
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.Window <= 0 {
		c.Window = DefaultSLOWindow
	}
	if c.Buckets <= 0 {
		c.Buckets = DefaultSLOBuckets
	}
	if c.Availability <= 0 || c.Availability > 1 {
		c.Availability = DefaultSLOAvailability
	}
	if c.LatencyObjectiveNs <= 0 {
		c.LatencyObjectiveNs = DefaultSLOLatencyNs
	}
	if c.LatencyGoal <= 0 || c.LatencyGoal > 1 {
		c.LatencyGoal = DefaultSLOLatencyGoal
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// sloBucket is one time slice of one app's rolling window.
type sloBucket struct {
	epoch int64 // bucket timestamp (unixNs / bucketNs); stale slots are reset lazily
	total int64
	errs  int64
	shed  int64
	slow  int64
}

// SLOTracker keeps rolling-window per-app availability and latency-objective
// attainment with error-budget accounting. Safe for concurrent use; nil is
// a valid tracker that records nothing.
type SLOTracker struct {
	cfg      SLOConfig
	bucketNs int64

	mu   sync.Mutex
	apps map[string]*[]sloBucket
}

// NewSLOTracker builds a tracker from the config.
func NewSLOTracker(cfg SLOConfig) *SLOTracker {
	cfg = cfg.withDefaults()
	return &SLOTracker{
		cfg:      cfg,
		bucketNs: int64(cfg.Window) / int64(cfg.Buckets),
		apps:     make(map[string]*[]sloBucket),
	}
}

// Observe records one request outcome for an app: whether it errored
// (5xx-class — spends error budget), whether it was shed (429 — tracked but
// not an availability failure; the client was told to back off), and its
// latency against the objective. Nil-safe.
func (t *SLOTracker) Observe(app string, errored, shed bool, latencyNs int64) {
	if t == nil || app == "" {
		return
	}
	epoch := t.cfg.Now().UnixNano() / t.bucketNs
	t.mu.Lock()
	defer t.mu.Unlock()
	bp := t.apps[app]
	if bp == nil {
		b := make([]sloBucket, t.cfg.Buckets)
		bp = &b
		t.apps[app] = bp
	}
	b := &(*bp)[int(epoch%int64(t.cfg.Buckets))]
	if b.epoch != epoch {
		*b = sloBucket{epoch: epoch}
	}
	b.total++
	if errored {
		b.errs++
	}
	if shed {
		b.shed++
	}
	if latencyNs > t.cfg.LatencyObjectiveNs {
		b.slow++
	}
}

// FleetDigestSchemaVersion identifies the /v1/fleetstat JSON schema.
const FleetDigestSchemaVersion = 1

// FleetDigest is the deterministic fleet SLO artifact: per-app rolling-
// window counts and error-budget arithmetic, sorted by app. It carries no
// wall-time fields — only configured objectives and window-relative counts
// — so for a fixed traffic sequence under an injectable clock the JSON
// encoding is byte-identical across runs and worker counts.
type FleetDigest struct {
	SchemaVersion int `json:"schema_version"`
	// WindowNs and the objectives echo the tracker configuration.
	WindowNs              int64    `json:"window_ns"`
	AvailabilityObjective float64  `json:"availability_objective"`
	LatencyObjectiveNs    int64    `json:"latency_objective_ns"`
	LatencyGoal           float64  `json:"latency_goal"`
	Apps                  []AppSLO `json:"apps"`
}

// AppSLO is one app's rolling-window SLO state.
type AppSLO struct {
	App string `json:"app"`
	// Raw window counts.
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	Shed     int64 `json:"shed"`
	Slow     int64 `json:"slow"`
	// Availability = (Requests-Errors)/Requests; FastRatio = (Requests-Slow)/Requests.
	Availability float64 `json:"availability"`
	FastRatio    float64 `json:"fast_ratio"`
	// Objective attainment over the window.
	AvailabilityMet bool `json:"availability_met"`
	LatencyMet      bool `json:"latency_met"`
	// Error budget: the window's request volume times the allowed failure
	// fraction, rounded; spent = Errors; remaining may go negative (budget
	// exhausted and overdrawn).
	ErrorBudget     int64   `json:"error_budget"`
	BudgetSpent     int64   `json:"budget_spent"`
	BudgetRemaining int64   `json:"budget_remaining"`
	BudgetRatio     float64 `json:"budget_ratio"`
}

// Digest evaluates the rolling window now and returns the fleet digest.
// Nil-safe (an empty digest).
func (t *SLOTracker) Digest() *FleetDigest {
	d := &FleetDigest{SchemaVersion: FleetDigestSchemaVersion, Apps: []AppSLO{}}
	if t == nil {
		return d
	}
	d.WindowNs = int64(t.cfg.Window)
	d.AvailabilityObjective = t.cfg.Availability
	d.LatencyObjectiveNs = t.cfg.LatencyObjectiveNs
	d.LatencyGoal = t.cfg.LatencyGoal

	nowEpoch := t.cfg.Now().UnixNano() / t.bucketNs
	oldest := nowEpoch - int64(t.cfg.Buckets) + 1
	t.mu.Lock()
	defer t.mu.Unlock()
	for app, bp := range t.apps {
		var a AppSLO
		a.App = app
		for i := range *bp {
			b := &(*bp)[i]
			if b.epoch < oldest || b.epoch > nowEpoch || b.total == 0 {
				continue
			}
			a.Requests += b.total
			a.Errors += b.errs
			a.Shed += b.shed
			a.Slow += b.slow
		}
		if a.Requests == 0 {
			continue // the app fell out of the window entirely
		}
		a.Availability = float64(a.Requests-a.Errors) / float64(a.Requests)
		a.FastRatio = float64(a.Requests-a.Slow) / float64(a.Requests)
		a.AvailabilityMet = a.Availability >= t.cfg.Availability
		a.LatencyMet = a.FastRatio >= t.cfg.LatencyGoal
		a.ErrorBudget = int64(math.Round((1 - t.cfg.Availability) * float64(a.Requests)))
		a.BudgetSpent = a.Errors
		a.BudgetRemaining = a.ErrorBudget - a.BudgetSpent
		switch {
		case a.ErrorBudget > 0:
			r := float64(a.BudgetRemaining) / float64(a.ErrorBudget)
			if r < 0 {
				r = 0
			}
			a.BudgetRatio = r
		case a.BudgetSpent == 0:
			a.BudgetRatio = 1
		default:
			a.BudgetRatio = 0
		}
		d.Apps = append(d.Apps, a)
	}
	sort.Slice(d.Apps, func(i, j int) bool { return d.Apps[i].App < d.Apps[j].App })
	return d
}

// JSON encodes the digest with stable field order and indentation — the
// /v1/fleetstat body, byte-identical for identical window state.
func (d *FleetDigest) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
