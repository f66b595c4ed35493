package core

import (
	"runtime"
	"testing"

	"reviewsolver/internal/synth"
)

func TestNormalizeWorkers(t *testing.T) {
	if got := normalizeWorkers(-5); got != 1 {
		t.Errorf("normalizeWorkers(-5) = %d, want 1", got)
	}
	if got := normalizeWorkers(3); got != 3 {
		t.Errorf("normalizeWorkers(3) = %d, want 3", got)
	}
	if got := normalizeWorkers(0); got < 1 {
		t.Errorf("normalizeWorkers(0) = %d, want >= 1", got)
	}
}

func poolInputs(n int) ([]*synth.AppData, []ReviewInput) {
	data := synth.GenerateSample(21)
	inputs := make([]ReviewInput, 0, n)
	for i, rv := range data.Reviews {
		if i >= n {
			break
		}
		inputs = append(inputs, ReviewInput{Text: rv.Text, PublishedAt: rv.PublishedAt})
	}
	return []*synth.AppData{data}, inputs
}

func TestPoolMatchesSequential(t *testing.T) {
	apps, inputs := poolInputs(60)
	app := apps[0].App

	seq := New()
	want := make([][]string, len(inputs))
	for i, in := range inputs {
		want[i] = seq.LocalizeReview(app, in.Text, in.PublishedAt).RankedClassNames()
	}

	pool := NewPool(4)
	got := pool.Localize(app, inputs)
	if len(got) != len(inputs) {
		t.Fatalf("results = %d, want %d", len(got), len(inputs))
	}
	for i, res := range got {
		if res == nil {
			t.Fatalf("nil result at %d", i)
		}
		names := res.RankedClassNames()
		if len(names) != len(want[i]) {
			t.Fatalf("input %d: pool %v vs sequential %v", i, names, want[i])
		}
		for k := range names {
			if names[k] != want[i][k] {
				t.Fatalf("input %d rank %d: pool %q vs sequential %q", i, k, names[k], want[i][k])
			}
		}
	}
}

func TestPoolEdgeCases(t *testing.T) {
	apps, _ := poolInputs(0)
	pool := NewPool(0) // zero value means all CPUs
	if want := runtime.NumCPU(); pool.Size() != want {
		t.Errorf("NewPool(0).Size() = %d, want runtime.NumCPU() = %d", pool.Size(), want)
	}
	if got := pool.Localize(apps[0].App, nil); len(got) != 0 {
		t.Errorf("empty batch returned %d results", len(got))
	}
	if neg := NewPool(-3); neg.Size() != 1 {
		t.Errorf("NewPool(-3).Size() = %d, want 1 (negative n is sequential)", neg.Size())
	}
	if pool.Snapshot() == nil {
		t.Error("pool has no snapshot")
	}
}

func TestPoolMoreWorkersThanJobs(t *testing.T) {
	apps, inputs := poolInputs(3)
	pool := NewPool(16)
	got := pool.Localize(apps[0].App, inputs)
	for i, res := range got {
		if res == nil {
			t.Fatalf("nil result at %d", i)
		}
	}
}
