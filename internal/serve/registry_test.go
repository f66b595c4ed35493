package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"reviewsolver/internal/core"
	"reviewsolver/internal/obs"
	"reviewsolver/internal/serve/faultinject"
	"reviewsolver/internal/snapfile"
	"reviewsolver/internal/synth"
)

// testImage compiles the sample app to a .snap image once and hands out
// copies; registry tests register the same bytes under different keys.
var (
	imgOnce sync.Once
	imgVal  []byte
	imgApp  *synth.AppData
)

func sampleImage(t testing.TB) (*synth.AppData, []byte) {
	t.Helper()
	imgOnce.Do(func() {
		imgApp = synth.GenerateSample(1)
		img, err := core.EncodeSnapshot(core.NewSnapshot(), imgApp.App)
		if err != nil {
			t.Fatalf("encode sample snapshot: %v", err)
		}
		imgVal = img
	})
	return imgApp, imgVal
}

// registerImage writes img to a fresh file under the test's temp dir and
// registers that path as app@version: the registry loads images from files
// only, so every test registers through here or POST /v1/apps.
func registerImage(t testing.TB, r *Registry, app, version string, img []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), app+"@"+version+".snap")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	r.Register(app, version, path)
}

// corruptImage returns the sample image with one payload byte flipped, so
// snapfile.Open fails its CRC check.
func corruptImage(t testing.TB) []byte {
	t.Helper()
	_, img := sampleImage(t)
	bad := append([]byte(nil), img...)
	bad[len(bad)-1] ^= 0xFF
	if _, err := snapfile.Open(bad); !errors.Is(err, snapfile.ErrChecksum) {
		t.Fatalf("corrupt image opens with %v, want checksum error", err)
	}
	return bad
}

func localizeOnce(t *testing.T, l *Lease) {
	t.Helper()
	data, _ := sampleImage(t)
	rv := data.Reviews[0]
	res := l.Solver.LocalizeReview(l.App, rv.Text, rv.PublishedAt)
	if res == nil {
		t.Fatal("lease solver returned nil result")
	}
}

func TestAcquireUnknownApp(t *testing.T) {
	r := NewRegistry(RegistryConfig{})
	if _, err := r.Acquire(context.Background(), "ghost", ""); !errors.Is(err, ErrUnknownApp) {
		t.Fatalf("Acquire ghost = %v, want ErrUnknownApp", err)
	}
	if _, err := r.Acquire(context.Background(), "ghost", "v1"); !errors.Is(err, ErrUnknownApp) {
		t.Fatalf("Acquire ghost@v1 = %v, want ErrUnknownApp", err)
	}
}

func TestLazyLoadOnceAndReuse(t *testing.T) {
	_, img := sampleImage(t)
	met := obs.NewRegistry()
	r := NewRegistry(RegistryConfig{Metrics: met})
	registerImage(t, r, "app.a", "v1", img)

	ctx := context.Background()
	l1, err := r.Acquire(ctx, "app.a", "")
	if err != nil {
		t.Fatal(err)
	}
	localizeOnce(t, l1)
	l1.Release()
	l2, err := r.Acquire(ctx, "app.a", "v1")
	if err != nil {
		t.Fatal(err)
	}
	l2.Release()
	if got := met.Counter(metricLoads).Value(); got != 1 {
		t.Fatalf("loads_total = %d, want 1 (singleflight + reuse)", got)
	}
	if got := r.ResidentBytes(); got != int64(len(img)) {
		t.Fatalf("ResidentBytes = %d, want %d", got, len(img))
	}
}

func TestSingleflightConcurrentFirstLoad(t *testing.T) {
	_, img := sampleImage(t)
	met := obs.NewRegistry()
	inj := faultinject.New()
	gate := make(chan struct{})
	inj.Arm(faultinject.PointSnapshotLoad, faultinject.Fault{Block: gate, Count: 1})
	r := NewRegistry(RegistryConfig{Metrics: met, Injector: inj})
	registerImage(t, r, "app.a", "v1", img)

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l, err := r.Acquire(context.Background(), "app.a", "")
			errs[i] = err
			if err == nil {
				l.Release()
			}
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let the leader hit the block and waiters pile up
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
	}
	if got := met.Counter(metricLoads).Value(); got != 1 {
		t.Fatalf("loads_total = %d, want 1 (one singleflight leader)", got)
	}
	if fired := inj.Fired(faultinject.PointSnapshotLoad); fired != 1 {
		t.Fatalf("load fault fired %d times, want 1", fired)
	}
}

func TestLRUEvictionOrderAndByteAccounting(t *testing.T) {
	_, img := sampleImage(t)
	size := int64(len(img))
	met := obs.NewRegistry()
	// Budget fits two images but not three.
	r := NewRegistry(RegistryConfig{MaxBytes: 2*size + size/2, Metrics: met})
	for _, app := range []string{"app.a", "app.b", "app.c"} {
		registerImage(t, r, app, "v1", img)
	}
	ctx := context.Background()
	acquire := func(app string) {
		t.Helper()
		l, err := r.Acquire(ctx, app, "")
		if err != nil {
			t.Fatalf("acquire %s: %v", app, err)
		}
		l.Release()
	}
	stateOf := func(app string) string {
		t.Helper()
		for _, st := range r.Apps() {
			if st.App == app {
				return st.State
			}
		}
		t.Fatalf("app %s not in registry listing", app)
		return ""
	}

	acquire("app.a")
	acquire("app.b")
	if got := r.ResidentBytes(); got != 2*size {
		t.Fatalf("resident after two loads = %d, want %d", got, 2*size)
	}
	// Loading C exceeds the budget; A is the least recently used → evicted.
	acquire("app.c")
	if got, want := stateOf("app.a"), "cold"; got != want {
		t.Fatalf("app.a state = %s, want %s (LRU evicted)", got, want)
	}
	if stateOf("app.b") != "live" || stateOf("app.c") != "live" {
		t.Fatalf("app.b/app.c states = %s/%s, want live/live", stateOf("app.b"), stateOf("app.c"))
	}
	if got := met.Counter(metricEvictions).Value(); got != 1 {
		t.Fatalf("evictions_total = %d, want 1", got)
	}
	if got := r.ResidentBytes(); got != 2*size {
		t.Fatalf("resident after eviction = %d, want %d", got, 2*size)
	}

	// Reloading A evicts B (now the least recently used), not C.
	acquire("app.a")
	if got, want := stateOf("app.b"), "cold"; got != want {
		t.Fatalf("app.b state = %s, want %s (second eviction)", got, want)
	}
	if stateOf("app.c") != "live" || stateOf("app.a") != "live" {
		t.Fatalf("app.c/app.a states = %s/%s, want live/live", stateOf("app.c"), stateOf("app.a"))
	}
	if got := met.Counter(metricEvictions).Value(); got != 2 {
		t.Fatalf("evictions_total = %d, want 2", got)
	}
	if got := met.Gauge(metricRegistryBytes).Value(); got != r.ResidentBytes() {
		t.Fatalf("bytes gauge %d disagrees with ResidentBytes %d", got, r.ResidentBytes())
	}
}

func TestLeasedSnapshotIsNotEvicted(t *testing.T) {
	_, img := sampleImage(t)
	size := int64(len(img))
	met := obs.NewRegistry()
	r := NewRegistry(RegistryConfig{MaxBytes: size + size/2, Metrics: met})
	registerImage(t, r, "app.a", "v1", img)
	registerImage(t, r, "app.b", "v1", img)

	ctx := context.Background()
	held, err := r.Acquire(ctx, "app.a", "")
	if err != nil {
		t.Fatal(err)
	}
	// Loading B pushes past the budget, but A is leased — it must stay.
	lb, err := r.Acquire(ctx, "app.b", "")
	if err != nil {
		t.Fatal(err)
	}
	lb.Release()
	localizeOnce(t, held) // the held lease must still serve
	held.Release()
	if got := met.Counter(metricEvictions).Value(); got != 0 {
		t.Fatalf("evictions_total = %d, want 0 (both pinned: one leased, one MRU)", got)
	}
}

func TestHotSwapDrainsOldSnapshot(t *testing.T) {
	_, img := sampleImage(t)
	met := obs.NewRegistry()
	r := NewRegistry(RegistryConfig{Metrics: met})
	registerImage(t, r, "app.a", "v1", img)

	ctx := context.Background()
	old, err := r.Acquire(ctx, "app.a", "")
	if err != nil {
		t.Fatal(err)
	}

	// Hot-swap the same app@version while the old lease is in flight.
	registerImage(t, r, "app.a", "v1", img)
	if got := met.Counter(metricHotSwaps).Value(); got != 1 {
		t.Fatalf("hotswaps_total = %d, want 1", got)
	}

	// Concurrent requests through the old lease keep serving during the swap.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			localizeOnce(t, old)
		}()
	}
	wg.Wait()

	// New acquisitions resolve to the replacement entry.
	fresh, err := r.Acquire(ctx, "app.a", "v1")
	if err != nil {
		t.Fatal(err)
	}
	if fresh.e == old.e {
		t.Fatal("acquire after hot-swap returned the retired entry")
	}
	localizeOnce(t, fresh)
	fresh.Release()

	// The old snapshot's memory is pinned until its last lease drains.
	if got := met.Counter(metricRetiredFreed).Value(); got != 0 {
		t.Fatalf("retired_released_total = %d before drain, want 0", got)
	}
	both := int64(2 * len(img))
	if got := r.ResidentBytes(); got != both {
		t.Fatalf("resident during drain = %d, want %d (old + new)", got, both)
	}
	old.Release()
	if got := met.Counter(metricRetiredFreed).Value(); got != 1 {
		t.Fatalf("retired_released_total = %d after drain, want 1", got)
	}
	if got := r.ResidentBytes(); got != int64(len(img)) {
		t.Fatalf("resident after drain = %d, want %d (old released)", got, len(img))
	}
}

func TestHotSwapNewVersionMovesLatest(t *testing.T) {
	_, img := sampleImage(t)
	r := NewRegistry(RegistryConfig{})
	registerImage(t, r, "app.a", "v1", img)
	registerImage(t, r, "app.a", "v2", img)

	l, err := r.Acquire(context.Background(), "app.a", "")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	if l.Version != "v2" {
		t.Fatalf("latest version = %s, want v2", l.Version)
	}
	// The old version stays individually addressable.
	lv1, err := r.Acquire(context.Background(), "app.a", "v1")
	if err != nil {
		t.Fatalf("acquire pinned v1: %v", err)
	}
	lv1.Release()
}

func TestQuarantineReprobeBackoff(t *testing.T) {
	met := obs.NewRegistry()
	inj := faultinject.New()
	// The first two probes fail (simulated corrupt loads); the third succeeds.
	boom := errors.New("simulated corrupt snapshot")
	inj.Arm(faultinject.PointSnapshotLoad, faultinject.Fault{Err: boom, Count: 2})

	_, img := sampleImage(t)
	r := NewRegistry(RegistryConfig{Metrics: met, Injector: inj})
	clock := time.Unix(1000, 0)
	r.now = func() time.Time { return clock }
	registerImage(t, r, "app.a", "v1", img)

	ctx := context.Background()
	// Probe 1: load fails, entry quarantined with base backoff.
	if _, err := r.Acquire(ctx, "app.a", ""); !errors.Is(err, ErrSnapshotLoad) || !errors.Is(err, boom) {
		t.Fatalf("first acquire = %v, want ErrSnapshotLoad wrapping the cause", err)
	}

	// Inside the backoff window: rejected without touching the loader.
	if _, err := r.Acquire(ctx, "app.a", ""); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("acquire in backoff = %v, want ErrQuarantined", err)
	}
	if after, ok := func() (time.Duration, bool) {
		_, err := r.Acquire(ctx, "app.a", "")
		return RetryAfterHint(err)
	}(); !ok || after <= 0 || after > quarantineBase {
		t.Fatalf("quarantine retry hint = %v ok=%v, want (0, %v]", after, ok, quarantineBase)
	}
	if fired := inj.Fired(faultinject.PointSnapshotLoad); fired != 1 {
		t.Fatalf("loader probed %d times inside backoff, want 1", fired)
	}

	// Probe 2 after the base backoff: fails again, backoff doubles.
	clock = clock.Add(quarantineBase)
	if _, err := r.Acquire(ctx, "app.a", ""); !errors.Is(err, ErrSnapshotLoad) {
		t.Fatalf("second probe = %v, want ErrSnapshotLoad", err)
	}
	clock = clock.Add(quarantineBase) // 1×base later: still inside the doubled window
	if _, err := r.Acquire(ctx, "app.a", ""); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("acquire inside doubled backoff = %v, want ErrQuarantined", err)
	}
	if fired := inj.Fired(faultinject.PointSnapshotLoad); fired != 2 {
		t.Fatalf("loader probed %d times, want 2", fired)
	}

	// Probe 3 after the doubled backoff: the fault is exhausted, the
	// snapshot loads, and the entry recovers.
	clock = clock.Add(quarantineBase) // total 2×base since probe 2
	l, err := r.Acquire(ctx, "app.a", "")
	if err != nil {
		t.Fatalf("probe after recovery = %v, want success", err)
	}
	localizeOnce(t, l)
	l.Release()
	if got := met.Counter(metricQuarRecovered).Value(); got != 1 {
		t.Fatalf("quarantine_recovered_total = %d, want 1", got)
	}
	if got := met.Counter(metricQuarRejects).Value(); got != 3 {
		t.Fatalf("quarantine_rejects_total = %d, want 3", got)
	}
}

func TestCorruptFileQuarantinesWithTypedError(t *testing.T) {
	bad := corruptImage(t)
	met := obs.NewRegistry()
	r := NewRegistry(RegistryConfig{Metrics: met})
	registerImage(t, r, "app.bad", "v1", bad)

	_, err := r.Acquire(context.Background(), "app.bad", "")
	if !errors.Is(err, ErrSnapshotLoad) {
		t.Fatalf("corrupt acquire = %v, want ErrSnapshotLoad", err)
	}
	if !errors.Is(err, snapfile.ErrChecksum) {
		t.Fatalf("corrupt acquire = %v, want the snapfile checksum cause preserved", err)
	}
	for _, st := range r.Apps() {
		if st.App == "app.bad" && st.State != "quarantined" {
			t.Fatalf("corrupt app state = %s, want quarantined", st.State)
		}
	}
	// One corrupt snapshot never takes down the fleet: a healthy app
	// registered beside it still serves.
	_, img := sampleImage(t)
	registerImage(t, r, "app.good", "v1", img)
	l, err := r.Acquire(context.Background(), "app.good", "")
	if err != nil {
		t.Fatalf("healthy app beside quarantined one: %v", err)
	}
	localizeOnce(t, l)
	l.Release()
}

func TestQuarantineBackoffCurve(t *testing.T) {
	for _, tc := range []struct {
		failures int
		want     time.Duration
	}{
		{1, quarantineBase}, {2, 2 * quarantineBase}, {3, 4 * quarantineBase},
		{7, quarantineMax}, {40, quarantineMax}, {0, quarantineBase},
	} {
		if got := quarantineBackoff(tc.failures); got != tc.want {
			t.Errorf("backoff(%d) = %v, want %v", tc.failures, got, tc.want)
		}
	}
}

func TestSlowLoadAbandonedGoesColdNotQuarantined(t *testing.T) {
	_, img := sampleImage(t)
	met := obs.NewRegistry()
	inj := faultinject.New()
	inj.Arm(faultinject.PointSnapshotLoad, faultinject.Fault{Block: make(chan struct{}), Count: 1})
	r := NewRegistry(RegistryConfig{Metrics: met, Injector: inj})
	registerImage(t, r, "app.a", "v1", img)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := r.Acquire(ctx, "app.a", ""); !errors.Is(err, ErrDeadline) {
		t.Fatalf("abandoned slow load = %v, want ErrDeadline", err)
	}
	if got := met.Counter(metricLoadCanceled).Value(); got != 1 {
		t.Fatalf("load_canceled_total = %d, want 1", got)
	}
	// The snapshot itself was never suspect: the next request (fault
	// exhausted) loads it cleanly with no quarantine in between.
	l, err := r.Acquire(context.Background(), "app.a", "")
	if err != nil {
		t.Fatalf("reload after abandoned load = %v", err)
	}
	l.Release()
	if got := met.Counter(metricQuarantined).Value(); got != 0 {
		t.Fatalf("quarantined_total = %d, want 0", got)
	}
}

// TestVersion1ImageQuarantines: an image written by a format version 1
// build fails its load with the typed snapfile.ErrVersion and quarantines
// like any other failed load; registering the recompiled image in its
// place serves, charged at its image length.
func TestVersion1ImageQuarantines(t *testing.T) {
	_, img := sampleImage(t)
	v1 := append([]byte(nil), img...)
	binary.LittleEndian.PutUint32(v1[8:], 1)
	met := obs.NewRegistry()
	r := NewRegistry(RegistryConfig{Metrics: met})
	registerImage(t, r, "app.old", "v1", v1)

	_, err := r.Acquire(context.Background(), "app.old", "")
	if !errors.Is(err, ErrSnapshotLoad) || !errors.Is(err, snapfile.ErrVersion) {
		t.Fatalf("v1 acquire = %v, want ErrSnapshotLoad wrapping snapfile.ErrVersion", err)
	}
	if got := met.Counter(metricQuarantined).Value(); got != 1 {
		t.Fatalf("quarantined_total = %d, want 1", got)
	}
	for _, st := range r.Apps() {
		if st.App == "app.old" && st.State != "quarantined" {
			t.Fatalf("v1 app state = %s, want quarantined", st.State)
		}
	}

	registerImage(t, r, "app.old", "v1", img)
	l, err := r.Acquire(context.Background(), "app.old", "")
	if err != nil {
		t.Fatalf("recompiled image: %v", err)
	}
	localizeOnce(t, l)
	l.Release()
	if got := r.ResidentBytes(); got != int64(len(img)) {
		t.Fatalf("ResidentBytes = %d, want image length %d", got, len(img))
	}
}
