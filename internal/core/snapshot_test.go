package core

import (
	"slices"
	"sync"
	"testing"

	"reviewsolver/internal/synth"
)

func TestSnapshotSolverMatchesSequential(t *testing.T) {
	apps, inputs := poolInputs(30)
	app := apps[0].App

	seq := New()
	sn := NewSnapshot()
	shared := NewWithSnapshot(sn)

	for i, in := range inputs {
		want := seq.LocalizeReview(app, in.Text, in.PublishedAt)
		got := shared.LocalizeReview(app, in.Text, in.PublishedAt)
		assertSameRanking(t, i, got.RankedClassNames(), want.RankedClassNames())
	}
}

func TestSnapshotStaticSingleExtraction(t *testing.T) {
	apps, _ := poolInputs(0)
	release := apps[0].App.Latest()
	sn := NewSnapshot()

	const goroutines = 8
	infos := make([]*StaticInfo, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			infos[g] = sn.StaticFor(release)
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if infos[g] != infos[0] {
			t.Fatalf("goroutine %d saw a different StaticInfo pointer: extraction ran more than once", g)
		}
	}
}

func TestSnapshotPrecompute(t *testing.T) {
	apps, _ := poolInputs(0)
	app := apps[0].App
	sn := NewSnapshot()
	sn.PrecomputeApp(app)
	for _, r := range app.Releases {
		before := sn.StaticFor(r)
		if before == nil {
			t.Fatalf("release %s not precomputed", r.Version)
		}
		if again := sn.StaticFor(r); again != before {
			t.Fatalf("release %s re-extracted after Precompute", r.Version)
		}
	}
	if sn.CatalogSize() == 0 {
		t.Fatal("catalog phrase vectors not precomputed")
	}
}

// TestSnapshotConcurrentPoolBatches is the shared-snapshot concurrency test
// of the CI race gate: many concurrent Pool.Localize batches run against
// one Snapshot, and every batch must come back input-ordered and identical
// to the sequential solver's output.
func TestSnapshotConcurrentPoolBatches(t *testing.T) {
	apps, inputs := poolInputs(40)
	app := apps[0].App

	seq := New()
	want := make([][]string, len(inputs))
	for i, in := range inputs {
		want[i] = seq.LocalizeReview(app, in.Text, in.PublishedAt).RankedClassNames()
	}

	sn := NewSnapshot()
	pools := []*Pool{
		NewPoolWithSnapshot(4, sn),
		NewPoolWithSnapshot(2, sn),
		NewPoolWithSnapshot(3, sn),
	}

	const batchesPerPool = 3
	var wg sync.WaitGroup
	for _, pool := range pools {
		for b := 0; b < batchesPerPool; b++ {
			wg.Add(1)
			go func(pool *Pool) {
				defer wg.Done()
				got := pool.Localize(app, inputs)
				for i, res := range got {
					if res == nil {
						t.Errorf("nil result at input %d", i)
						return
					}
					names := res.RankedClassNames()
					if len(names) != len(want[i]) {
						t.Errorf("input %d: concurrent pool %v vs sequential %v", i, names, want[i])
						return
					}
					for k := range names {
						if names[k] != want[i][k] {
							t.Errorf("input %d rank %d: concurrent pool %q vs sequential %q",
								i, k, names[k], want[i][k])
							return
						}
					}
				}
			}(pool)
		}
	}
	wg.Wait()
}

func TestWithWordModelDetachesSnapshot(t *testing.T) {
	sn := NewSnapshot()
	s := NewWithSnapshot(sn)
	if s.snap != sn {
		t.Fatal("snapshot not attached")
	}
	apps, _ := poolInputs(0)
	release := apps[0].App.Latest()

	detached := NewWithSnapshot(sn, WithWordModel(s.vec))
	if detached.snap == sn {
		t.Fatal("WithWordModel must detach the shared snapshot")
	}
	if detached.snap.solver != detached {
		t.Fatal("detached solver's snapshot is not its own")
	}
	if info := detached.StaticFor(release); info == nil {
		t.Fatal("detached solver cannot extract")
	}
	if sn.StaticFor(release) == detached.StaticFor(release) {
		t.Fatal("detached solver shares the snapshot's extraction")
	}
}

// TestNewSolverConcurrent: a New() solver reads its §3.3 extraction through
// a snapshot of its own, so goroutines may share it from its first review
// on. Each goroutine starts at a different review, so first extractions of
// different releases overlap, and each must rank as a sequential solver
// does.
func TestNewSolverConcurrent(t *testing.T) {
	data := synth.GenerateSample(1)
	seq := New()
	want := make([][]string, len(data.Reviews))
	for i, rv := range data.Reviews {
		want[i] = seq.LocalizeReview(data.App, rv.Text, rv.PublishedAt).RankedClassNames()
	}
	const goroutines = 4
	shared := New()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range data.Reviews {
				i := (k + g*len(data.Reviews)/goroutines) % len(data.Reviews)
				rv := data.Reviews[i]
				got := shared.LocalizeReview(data.App, rv.Text, rv.PublishedAt).RankedClassNames()
				if !slices.Equal(got, want[i]) {
					t.Errorf("goroutine %d, review %d: ranking %v, sequential %v", g, i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

func assertSameRanking(t *testing.T, input int, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("input %d: ranking %v, want %v", input, got, want)
	}
	for k := range got {
		if got[k] != want[k] {
			t.Fatalf("input %d rank %d: %q, want %q", input, k, got[k], want[k])
		}
	}
}
