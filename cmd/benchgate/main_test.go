package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// fakeGate returns a gate whose collector yields m.
func fakeGate(exact bool, m map[string]float64) *gate {
	return &gate{
		name:    "fake",
		file:    "BENCH_FAKE.json",
		title:   "Fake gate",
		exact:   exact,
		collect: func() (map[string]float64, error) { return m, nil },
	}
}

// writeBaseline stores a baseline for the fake gate and returns its path.
func writeBaseline(t *testing.T, dir string, storedSeed int64, m map[string]float64) string {
	t.Helper()
	path := filepath.Join(dir, "BENCH_FAKE.json")
	if err := writeSnapshot(path, snapshotFile{ID: "fake", Title: "Fake gate", Seed: storedSeed, Metrics: m}); err != nil {
		t.Fatal(err)
	}
	return path
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCheckCreatesMissingBaseline(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := check(&out, dir, []*gate{fakeGate(false, map[string]float64{"a": 1})}, 0.02, false); err != nil {
		t.Fatalf("check with no baseline = %v, want a clean skip", err)
	}
	if !strings.Contains(out.String(), "baseline created") {
		t.Errorf("output %q does not report the created baseline", out.String())
	}
	sf, err := readSnapshot(filepath.Join(dir, "BENCH_FAKE.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := snapshotFile{ID: "fake", Title: "Fake gate", Seed: seed, Metrics: map[string]float64{"a": 1}}
	if !reflect.DeepEqual(sf, want) {
		t.Fatalf("created baseline = %+v, want %+v", sf, want)
	}
}

func TestCheckDriftFailsAndKeepsBaseline(t *testing.T) {
	dir := t.TempDir()
	path := writeBaseline(t, dir, seed, map[string]float64{"a": 100, "b": 5})
	before := readFile(t, path)

	var out bytes.Buffer
	err := check(&out, dir, []*gate{fakeGate(false, map[string]float64{"a": 103, "b": 5})}, 0.02, false)
	if err == nil {
		t.Fatal("3% drift passed a 2% gate")
	}
	if !strings.Contains(out.String(), "a: 100 → 103") || strings.Contains(out.String(), "b:") {
		t.Errorf("drift report %q should name a and only a", out.String())
	}
	if !bytes.Equal(readFile(t, path), before) {
		t.Fatal("a failed gate rewrote its baseline")
	}
	if err := check(&out, dir, []*gate{fakeGate(false, map[string]float64{"a": 101.5, "b": 5})}, 0.02, false); err != nil {
		t.Fatalf("1.5%% drift failed a 2%% gate: %v", err)
	}
}

func TestCheckVanishedAndNewKeysFail(t *testing.T) {
	dir := t.TempDir()
	writeBaseline(t, dir, seed, map[string]float64{"kept": 1, "gone": 2})
	var out bytes.Buffer
	err := check(&out, dir, []*gate{fakeGate(false, map[string]float64{"kept": 1, "fresh": 3})}, 0.02, false)
	if err == nil {
		t.Fatal("a vanished and a new metric passed the gate")
	}
	for _, want := range []string{"gone: metric vanished", "fresh: new metric"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("drift report %q is missing %q", out.String(), want)
		}
	}
}

func TestCheckUpdateRewritesBaseline(t *testing.T) {
	dir := t.TempDir()
	path := writeBaseline(t, dir, seed, map[string]float64{"a": 100, "gone": 1})
	var out bytes.Buffer
	cur := map[string]float64{"a": 150, "fresh": 2}
	if err := check(&out, dir, []*gate{fakeGate(false, cur)}, 0.02, true); err != nil {
		t.Fatalf("-update = %v, want success", err)
	}
	sf, err := readSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sf.Metrics, cur) {
		t.Fatalf("updated baseline metrics = %v, want %v", sf.Metrics, cur)
	}
	if err := check(&out, dir, []*gate{fakeGate(false, cur)}, 0, false); err != nil {
		t.Fatalf("rerun against the updated baseline = %v", err)
	}
}

func TestCheckRejectsForeignSeed(t *testing.T) {
	dir := t.TempDir()
	path := writeBaseline(t, dir, seed+1, map[string]float64{"a": 1})
	before := readFile(t, path)
	for _, update := range []bool{false, true} {
		var out bytes.Buffer
		err := check(&out, dir, []*gate{fakeGate(false, map[string]float64{"a": 1})}, 0.02, update)
		if err == nil || !strings.Contains(err.Error(), "baseline seed 2") {
			t.Fatalf("update=%v: baseline with seed 2 = %v, want a seed error", update, err)
		}
	}
	if !bytes.Equal(readFile(t, path), before) {
		t.Fatal("a baseline with a foreign seed was rewritten")
	}
}

func TestExactGateRejectsOneULP(t *testing.T) {
	const v = 0.1
	next := math.Nextafter(v, 1)
	for _, tc := range []struct {
		exact bool
		pass  bool
	}{{exact: false, pass: true}, {exact: true, pass: false}} {
		dir := t.TempDir()
		writeBaseline(t, dir, seed, map[string]float64{"x": v})
		var out bytes.Buffer
		err := check(&out, dir, []*gate{fakeGate(tc.exact, map[string]float64{"x": next})}, 0.02, false)
		if (err == nil) != tc.pass {
			t.Errorf("exact=%v: one-ulp change gave %v, want pass=%v", tc.exact, err, tc.pass)
		}
	}
}

func TestParseMetric(t *testing.T) {
	for cell, want := range map[string]float64{
		"42":       42,
		" 7 ":      7,
		"-3.5":     -3.5,
		"56.7%":    56.7,
		"1,234":    1234,
		"1,234.5%": 1234.5,
		"0.68":     0.68,
	} {
		got, ok := parseMetric(cell)
		if !ok || got != want {
			t.Errorf("parseMetric(%q) = %v, %v; want %v, true", cell, got, ok, want)
		}
	}
	for _, cell := range []string{"", " ", "%", "NaN", "nan", "Inf", "-Inf", "+Inf", "K-9 Mail", "12ms", "3/4", "1e999"} {
		if got, ok := parseMetric(cell); ok {
			t.Errorf("parseMetric(%q) = %v, true; want not a metric", cell, got)
		}
	}
}

func TestParseTables(t *testing.T) {
	for spec, want := range map[string][]int{
		"1-17":      {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17},
		"1,2,8-10":  {1, 2, 8, 9, 10},
		"17":        {17},
		"5-5":       {5},
		"3,1,3,2-3": {1, 2, 3},
		" 4 , 6 ,":  {4, 6},
	} {
		got, err := parseTables(spec)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("parseTables(%q) = %v, %v; want %v", spec, got, err, want)
		}
	}
	for _, spec := range []string{"", ",", "0", "18", "1-18", "0-3", "5-3", "x", "1-x", "-2"} {
		if got, err := parseTables(spec); err == nil {
			t.Errorf("parseTables(%q) = %v, want an error", spec, got)
		}
	}
}
