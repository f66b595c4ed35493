package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeClock is a mutex-guarded settable clock for window tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1700000000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func TestSLOTrackerBudgetArithmetic(t *testing.T) {
	clk := newFakeClock()
	tr := NewSLOTracker(SLOConfig{
		Window:             time.Minute,
		Buckets:            60,
		Availability:       0.9, // budget = 10% of requests
		LatencyObjectiveNs: 1000,
		LatencyGoal:        0.5,
		Now:                clk.Now,
	})
	for i := 0; i < 95; i++ {
		tr.Observe("com.app.a", false, false, 10)
	}
	for i := 0; i < 5; i++ {
		tr.Observe("com.app.a", true, false, 5000) // errored and slow
	}
	d := tr.Digest()
	if len(d.Apps) != 1 {
		t.Fatalf("apps = %d, want 1", len(d.Apps))
	}
	a := d.Apps[0]
	if a.Requests != 100 || a.Errors != 5 || a.Slow != 5 || a.Shed != 0 {
		t.Fatalf("counts: %+v", a)
	}
	if a.Availability != 0.95 || !a.AvailabilityMet {
		t.Fatalf("availability %v met=%v, want 0.95 met", a.Availability, a.AvailabilityMet)
	}
	if a.ErrorBudget != 10 || a.BudgetSpent != 5 || a.BudgetRemaining != 5 || a.BudgetRatio != 0.5 {
		t.Fatalf("budget: %+v", a)
	}
	if a.FastRatio != 0.95 || !a.LatencyMet {
		t.Fatalf("latency: %+v", a)
	}
}

func TestSLOTrackerBudgetOverdraw(t *testing.T) {
	clk := newFakeClock()
	tr := NewSLOTracker(SLOConfig{Availability: 0.9, Now: clk.Now})
	for i := 0; i < 10; i++ {
		tr.Observe("a", true, false, 0) // all errors: budget 1, spent 10
	}
	a := tr.Digest().Apps[0]
	if a.ErrorBudget != 1 || a.BudgetSpent != 10 || a.BudgetRemaining != -9 {
		t.Fatalf("overdraw: %+v", a)
	}
	if a.BudgetRatio != 0 {
		t.Fatalf("overdrawn ratio = %v, want clamped 0", a.BudgetRatio)
	}
	if a.AvailabilityMet {
		t.Fatal("0%% availability cannot meet a 90%% objective")
	}
}

func TestSLOTrackerRollingWindowExpiry(t *testing.T) {
	clk := newFakeClock()
	tr := NewSLOTracker(SLOConfig{Window: 10 * time.Second, Buckets: 10, Now: clk.Now})
	tr.Observe("a", true, false, 0)
	if got := tr.Digest().Apps[0].Errors; got != 1 {
		t.Fatalf("fresh error count = %d", got)
	}
	clk.Advance(5 * time.Second)
	tr.Observe("a", false, false, 0)
	a := tr.Digest().Apps[0]
	if a.Requests != 2 || a.Errors != 1 {
		t.Fatalf("mid-window: %+v", a)
	}
	clk.Advance(6 * time.Second) // first observation (t=0) falls out of [t=1, t=11]
	a = tr.Digest().Apps[0]
	if a.Requests != 1 || a.Errors != 0 {
		t.Fatalf("after expiry: %+v", a)
	}
	clk.Advance(time.Minute) // everything expires; the app drops from the digest
	if apps := tr.Digest().Apps; len(apps) != 0 {
		t.Fatalf("fully expired app still present: %+v", apps)
	}
}

func TestSLOTrackerShedNotAvailabilityFailure(t *testing.T) {
	clk := newFakeClock()
	tr := NewSLOTracker(SLOConfig{Now: clk.Now})
	tr.Observe("a", false, true, 0)
	tr.Observe("a", false, false, 0)
	a := tr.Digest().Apps[0]
	if a.Shed != 1 || a.Errors != 0 || a.Availability != 1 {
		t.Fatalf("shed accounting: %+v", a)
	}
}

func TestFleetDigestJSONDeterministicAndValid(t *testing.T) {
	build := func() []byte {
		clk := newFakeClock()
		tr := NewSLOTracker(SLOConfig{Availability: 0.9, LatencyObjectiveNs: 1 << 40, Now: clk.Now})
		// Interleave apps; output must sort by app regardless.
		tr.Observe("com.b", false, false, 1)
		tr.Observe("com.a", true, false, 1)
		tr.Observe("com.a", false, false, 1)
		tr.Observe("com.c", false, true, 1)
		data, err := tr.Digest().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	first := build()
	for i := 0; i < 3; i++ {
		if got := build(); !bytes.Equal(first, got) {
			t.Fatalf("digest JSON not byte-deterministic:\n%s\nvs\n%s", first, got)
		}
	}
	if err := validateFleetDigestJSON(first); err != nil {
		t.Fatalf("self-produced digest failed validation: %v\n%s", err, first)
	}
	if first[len(first)-1] != '\n' {
		t.Fatal("digest JSON should end with a newline")
	}
}

func TestValidateFleetDigestJSONRejects(t *testing.T) {
	cases := []struct{ name, data string }{
		{"not json", `{`},
		{"wrong version", `{"schema_version":99,"window_ns":1,"availability_objective":0.9,"latency_objective_ns":1,"latency_goal":0.9,"apps":[]}`},
		{"zero window", `{"schema_version":1,"window_ns":0,"availability_objective":0.9,"latency_objective_ns":1,"latency_goal":0.9,"apps":[]}`},
		{"objective >1", `{"schema_version":1,"window_ns":1,"availability_objective":1.5,"latency_objective_ns":1,"latency_goal":0.9,"apps":[]}`},
		{"unsorted apps", `{"schema_version":1,"window_ns":1,"availability_objective":0.9,"latency_objective_ns":1,"latency_goal":0.9,"apps":[{"app":"b","requests":1,"availability":1,"fast_ratio":1,"budget_ratio":1},{"app":"a","requests":1,"availability":1,"fast_ratio":1,"budget_ratio":1}]}`},
		{"errors > requests", `{"schema_version":1,"window_ns":1,"availability_objective":0.9,"latency_objective_ns":1,"latency_goal":0.9,"apps":[{"app":"a","requests":1,"errors":2,"availability":1,"fast_ratio":1,"budget_ratio":1,"budget_spent":2,"error_budget":0,"budget_remaining":-2}]}`},
		{"budget mismatch", `{"schema_version":1,"window_ns":1,"availability_objective":0.9,"latency_objective_ns":1,"latency_goal":0.9,"apps":[{"app":"a","requests":10,"errors":1,"availability":0.9,"fast_ratio":1,"budget_ratio":1,"budget_spent":1,"error_budget":1,"budget_remaining":5}]}`},
	}
	for _, tc := range cases {
		if err := validateFleetDigestJSON([]byte(tc.data)); !errors.Is(err, errFleetDigest) {
			t.Errorf("%s: err = %v, want errFleetDigest", tc.name, err)
		}
	}
}

func TestSLOTrackerNilSafety(t *testing.T) {
	var tr *SLOTracker
	tr.Observe("a", true, true, 1) // must not panic
	d := tr.Digest()
	if d == nil || len(d.Apps) != 0 {
		t.Fatalf("nil tracker digest: %+v", d)
	}
	if _, err := d.JSON(); err != nil {
		t.Fatal(err)
	}
}

func TestSLOTrackerConcurrentObserve(t *testing.T) {
	clk := newFakeClock()
	tr := NewSLOTracker(SLOConfig{Now: clk.Now})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Observe("a", i%10 == 0, false, 1)
			}
		}()
	}
	wg.Wait()
	a := tr.Digest().Apps[0]
	if a.Requests != 1600 || a.Errors != 160 {
		t.Fatalf("concurrent totals: %+v", a)
	}
}

// errFleetDigest is the typed validation failure of validateFleetDigestJSON.
var errFleetDigest = errors.New("fleet digest: invalid")

// validateFleetDigestJSON checks raw bytes against the fleet digest schema:
// version match, sorted unique apps, in-range ratios, and internally
// consistent budget arithmetic. All failures are typed and it never panics.
func validateFleetDigestJSON(data []byte) error {
	var d FleetDigest
	if err := json.Unmarshal(data, &d); err != nil {
		return fmt.Errorf("%w: not valid JSON: %v", errFleetDigest, err)
	}
	if d.SchemaVersion != FleetDigestSchemaVersion {
		return fmt.Errorf("%w: schema_version %d, want %d", errFleetDigest, d.SchemaVersion, FleetDigestSchemaVersion)
	}
	if d.WindowNs <= 0 || d.LatencyObjectiveNs <= 0 {
		return fmt.Errorf("%w: non-positive window or latency objective", errFleetDigest)
	}
	if d.AvailabilityObjective <= 0 || d.AvailabilityObjective > 1 || d.LatencyGoal <= 0 || d.LatencyGoal > 1 {
		return fmt.Errorf("%w: objectives out of (0, 1]", errFleetDigest)
	}
	prev := ""
	for i, a := range d.Apps {
		if a.App == "" {
			return fmt.Errorf("%w: app %d has no name", errFleetDigest, i)
		}
		if a.App <= prev && i > 0 {
			return fmt.Errorf("%w: apps not sorted (%q after %q)", errFleetDigest, a.App, prev)
		}
		prev = a.App
		if a.Requests <= 0 || a.Errors < 0 || a.Shed < 0 || a.Slow < 0 ||
			a.Errors > a.Requests || a.Slow > a.Requests || a.Shed > a.Requests {
			return fmt.Errorf("%w: app %s counts inconsistent", errFleetDigest, a.App)
		}
		if a.Availability < 0 || a.Availability > 1 || a.FastRatio < 0 || a.FastRatio > 1 ||
			a.BudgetRatio < 0 || a.BudgetRatio > 1 {
			return fmt.Errorf("%w: app %s ratios out of [0, 1]", errFleetDigest, a.App)
		}
		if a.BudgetSpent != a.Errors {
			return fmt.Errorf("%w: app %s budget_spent %d != errors %d", errFleetDigest, a.App, a.BudgetSpent, a.Errors)
		}
		if a.BudgetRemaining != a.ErrorBudget-a.BudgetSpent {
			return fmt.Errorf("%w: app %s budget arithmetic: %d - %d != %d",
				errFleetDigest, a.App, a.ErrorBudget, a.BudgetSpent, a.BudgetRemaining)
		}
	}
	return nil
}
