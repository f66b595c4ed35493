package obs

import (
	"fmt"
	"strings"
	"testing"
)

func TestCounterVecRendersSortedLabels(t *testing.T) {
	reg := NewRegistry()
	// Declared out of order: children must render with sorted label names.
	v := reg.CounterVec("serve_requests_total", "route", "app", "code")
	v.With("com.app.a", "200", "/v1/localize").Add(2)
	v.With("com.app.a", "200", "/v1/localize").Add(1)
	v.With("com.app.b", "429", "/v1/localize").Add(1)

	snap := reg.Snapshot()
	wantA := `serve_requests_total{app="com.app.a",code="200",route="/v1/localize"}`
	wantB := `serve_requests_total{app="com.app.b",code="429",route="/v1/localize"}`
	if snap[wantA] != 3 {
		t.Fatalf("%s = %v, want 3 (snapshot %v)", wantA, snap[wantA], snap)
	}
	if snap[wantB] != 1 {
		t.Fatalf("%s = %v, want 1", wantB, snap[wantB])
	}
}

func TestVecSameChildSameHandle(t *testing.T) {
	reg := NewRegistry()
	v := reg.CounterVec("x_total", "app")
	if v.With("a") != v.With("a") {
		t.Fatal("same label values should vend the same child handle")
	}
	if v.With("a") == v.With("b") {
		t.Fatal("different label values should vend different children")
	}
	if got := reg.CounterVec("x_total", "ignored"); got != v {
		t.Fatal("second CounterVec call for a name should return the existing vec")
	}
}

func TestVecCardinalityOverflow(t *testing.T) {
	reg := NewRegistry()
	v := reg.CounterVec("apps_total", "app")
	n := DefaultLabelCap + 10
	for i := 0; i < n; i++ {
		v.With(fmt.Sprintf("app-%03d", i)).Add(1)
	}
	overflow := `apps_total{app="` + OverflowLabel + `"}`
	snap := reg.Snapshot()
	if snap[overflow] != 10 {
		t.Fatalf("overflow child = %v, want 10", snap[overflow])
	}
	// The total across all children stays exact.
	var total float64
	for k, val := range snap {
		if strings.HasPrefix(k, "apps_total{") {
			total += val
		}
	}
	if total != float64(n) {
		t.Fatalf("sum over children = %v, want %d", total, n)
	}
	// Existing children keep working after saturation.
	v.With("app-000").Add(1)
	if got := reg.Snapshot()[`apps_total{app="app-000"}`]; got != 2 {
		t.Fatalf("pre-cap child after saturation = %v, want 2", got)
	}
}

func TestVecArityMismatchGoesToOverflow(t *testing.T) {
	reg := NewRegistry()
	v := reg.CounterVec("y_total", "app", "code")
	v.With("only-one").Add(1) // wrong arity must not panic
	overflow := `y_total{app="` + OverflowLabel + `",code="` + OverflowLabel + `"}`
	if got := reg.Snapshot()[overflow]; got != 1 {
		t.Fatalf("arity mismatch should land in overflow child, got %v", got)
	}
}

func TestLabelValueEscaping(t *testing.T) {
	reg := NewRegistry()
	v := reg.CounterVec("g", "k")
	v.With("a\"b\\c\nd").Add(7)
	want := `g{k="a\"b\\c\nd"}`
	if got := reg.Snapshot()[want]; got != 7 {
		t.Fatalf("escaped key %q = %v, want 7", want, got)
	}
}

func TestHistogramVecChildren(t *testing.T) {
	reg := NewRegistry()
	v := reg.HistogramVec("lat_ns", []float64{10, 100}, "app")
	v.With("a").Observe(5)
	v.With("a").Observe(50)
	v.With("b").Observe(500)
	snap := reg.Snapshot()
	if snap[`lat_ns{app="a"}|count`] != 2 {
		t.Fatalf(`lat_ns{app="a"}|count = %v, want 2`, snap[`lat_ns{app="a"}|count`])
	}
	if snap[`lat_ns{app="a"}|le|10`] != 1 {
		t.Fatalf("bucket le=10 = %v, want 1", snap[`lat_ns{app="a"}|le|10`])
	}
	if snap[`lat_ns{app="b"}|le|+Inf`] != 1 {
		t.Fatalf("+Inf bucket = %v, want 1", snap[`lat_ns{app="b"}|le|+Inf`])
	}
}

func TestVecNilSafety(t *testing.T) {
	var reg *Registry
	reg.CounterVec("a", "l").With("x").Add(1)
	reg.HistogramVec("c", nil, "l").With("x").Observe(1)
	var cv *CounterVec
	cv.With("x").Add(1) // must not panic
}

func TestVecTextExpositionDeterministic(t *testing.T) {
	render := func() string {
		reg := NewRegistry()
		v := reg.CounterVec("r_total", "app", "code")
		v.With("b", "200").Add(1)
		v.With("a", "500").Add(2)
		v.With("a", "200").Add(3)
		var sb strings.Builder
		if err := reg.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	first := render()
	for i := 0; i < 5; i++ {
		if got := render(); got != first {
			t.Fatalf("exposition not deterministic:\n%s\nvs\n%s", first, got)
		}
	}
	if !strings.Contains(first, `counter r_total{app="a",code="200"} 3`) {
		t.Fatalf("labeled child missing from exposition:\n%s", first)
	}
}
