// Command benchgate is the CI bench gate: it regenerates the tier-1
// evaluation tables (the paper's Tables 1–16 and the Table 17 extension)
// and the kernel, telemetry, front-end and snapshot metrics with a fixed
// seed, writes one BENCH_<name>.json metric snapshot per gate, and fails
// when the reproduced metrics drift from the previous snapshot beyond a
// tolerance. (bench/BENCH_FLEETOBS.json is not a benchgate gate: the
// TestFleetObsGolden test in internal/serve pins it at zero tolerance.)
//
// Behaviour, identical for every gate:
//
//   - no prior baseline file → the baseline is created and the gate is
//     skipped cleanly (exit 0);
//   - prior snapshot present → every metric shared by both runs is compared
//     with relative tolerance -tol; drifted, vanished and newly appearing
//     metrics all fail the gate (exit 1) and the stored baseline is kept so
//     the failure reproduces;
//   - -update rewrites the baselines from the current run and exits 0.
//
// Table cells that do not parse as numbers (labels, durations) are
// ignored, so wall-clock noise never fails the gate. Table 15 has no gate:
// every cell is a duration, so there is nothing to pin (its row order is
// checked by TestTable15Timing in internal/experiments). Everything runs
// offline from the built-in generators.
//
// Usage:
//
//	benchgate [-dir bench] [-tol 0.02] [-tables 1,2,8-10] [-update]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"reviewsolver/internal/experiments"
)

// seed is the generator seed every committed baseline was taken at.
const seed = 1

// snapshotFile is the on-disk schema of one BENCH_<name>.json.
type snapshotFile struct {
	Table   int                `json:"table"`
	ID      string             `json:"id"`
	Title   string             `json:"title"`
	Seed    int64              `json:"seed"`
	Metrics map[string]float64 `json:"metrics"`
}

// A gate is one baseline file and the collector that regenerates its
// metrics. name is also the snapshot's stored id.
type gate struct {
	name    string
	file    string
	table   int // paper table number; 0 for the gates that are not tables
	title   string
	collect func() (map[string]float64, error)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		dir    = flag.String("dir", "bench", "directory holding the BENCH_*.json baselines")
		tol    = flag.Float64("tol", 0.02, "relative drift tolerance per metric")
		tables = flag.String("tables", "1-17", "paper tables to gate (comma list with ranges, e.g. 1,2,8-10)")
		update = flag.Bool("update", false, "rewrite the baselines from this run")
	)
	flag.Parse()

	nums, err := parseTables(*tables)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	return check(os.Stdout, *dir, gates(nums), *tol, *update)
}

// untimedTable is the one paper table without a gate: Table 15 holds only
// wall-clock durations.
const untimedTable = 15

// gates lists the selected paper tables, less Table 15, followed by every
// other gate.
func gates(tables []int) []*gate {
	runner := experiments.NewRunner(seed)
	out := make([]*gate, 0, len(tables)+4)
	for _, n := range tables {
		if n != untimedTable {
			out = append(out, tableGate(runner, n))
		}
	}
	return append(out,
		&gate{name: "kernel", file: "BENCH_KERNEL.json", title: "Similarity-kernel scan statistics", collect: kernelMetrics},
		&gate{name: "obs", file: "BENCH_OBS.json", title: "Pipeline telemetry registry totals", collect: obsMetrics},
		&gate{name: "frontend", file: "BENCH_FRONTEND.json", title: "Front-end allocation and cache-effectiveness gate", collect: frontendMetrics},
		&gate{name: "snapshot", file: "BENCH_SNAPSHOT.json", title: "Snapshot format structural and equivalence gate", collect: snapshotMetrics},
	)
}

// tableGate gates paper table n. The caption is known only once the table
// is generated, so the collector records it on the gate.
func tableGate(runner *experiments.Runner, n int) *gate {
	g := &gate{name: fmt.Sprintf("Table %d", n), file: fmt.Sprintf("BENCH_%d.json", n), table: n}
	g.collect = func() (map[string]float64, error) {
		tab, err := runner.TableByNumber(n)
		if err != nil {
			return nil, err
		}
		g.title = tab.Title
		return tableMetrics(tab), nil
	}
	return g
}

// check runs the create/compare/update cycle of every gate and fails if any
// gate drifted.
func check(out io.Writer, dir string, gs []*gate, tol float64, update bool) error {
	failed, created := 0, 0
	for _, g := range gs {
		m, err := g.collect()
		if err != nil {
			return fmt.Errorf("%s: %w", g.name, err)
		}
		made, drifted, err := gateSnapshot(out, dir, g, m, tol, update)
		if err != nil {
			return err
		}
		if made {
			created++
		}
		if drifted {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d gate(s) drifted beyond tolerance (use -update to accept)", failed)
	}
	if created > 0 {
		fmt.Fprintf(out, "%d baseline(s) created; gate active on next run\n", created)
	}
	return nil
}

// gateSnapshot runs the create/compare/update cycle for one gate. It
// reports whether a fresh baseline was created and whether the current run
// drifted from an existing one.
func gateSnapshot(out io.Writer, dir string, g *gate, m map[string]float64, tol float64, update bool) (made, drifted bool, err error) {
	path := filepath.Join(dir, g.file)
	cur := snapshotFile{Table: g.table, ID: g.name, Title: g.title, Seed: seed, Metrics: m}
	prev, err := readSnapshot(path)
	switch {
	case err != nil && os.IsNotExist(err):
		if err := writeSnapshot(path, cur); err != nil {
			return false, false, err
		}
		fmt.Fprintf(out, "%-8s: baseline created (%d metrics) — skipped\n", g.name, len(m))
		return true, false, nil
	case err != nil:
		return false, false, fmt.Errorf("read %s: %w", path, err)
	}
	if prev.Seed != seed {
		return false, false, fmt.Errorf("%s: baseline seed %d, want %d (delete %s to retake it)", g.name, prev.Seed, seed, path)
	}
	if update {
		if err := writeSnapshot(path, cur); err != nil {
			return false, false, err
		}
		fmt.Fprintf(out, "%-8s: baseline updated (%d metrics)\n", g.name, len(m))
		return false, false, nil
	}
	drifts := compareMetrics(prev.Metrics, m, tol)
	if len(drifts) == 0 {
		fmt.Fprintf(out, "%-8s: ok (%d metrics within %.1f%%)\n", g.name, len(m), 100*tol)
		return false, false, nil
	}
	fmt.Fprintf(out, "%-8s: DRIFT (%d metrics)\n", g.name, len(drifts))
	for _, d := range drifts {
		fmt.Fprintf(out, "  %s\n", d)
	}
	return false, true, nil
}

// tableMetrics flattens a table's numeric cells into a stable key → value
// map. The key carries the row index, the row label, and the column header
// so that structural changes surface as missing/new keys instead of silent
// re-pairings.
func tableMetrics(tab *experiments.Table) map[string]float64 {
	out := make(map[string]float64)
	for ri, row := range tab.Rows {
		label := ""
		if len(row) > 0 {
			label = row[0]
		}
		for ci, cell := range row {
			v, ok := parseMetric(cell)
			if !ok {
				continue
			}
			header := fmt.Sprintf("col%d", ci)
			if ci < len(tab.Header) {
				header = tab.Header[ci]
			}
			out[fmt.Sprintf("r%02d|%s|%s", ri, label, header)] = v
		}
	}
	return out
}

// parseMetric extracts a float from a table cell: plain numbers and
// percentages count; labels, durations, and compound cells do not.
func parseMetric(cell string) (float64, bool) {
	s := strings.TrimSpace(cell)
	s = strings.TrimSuffix(s, "%")
	s = strings.ReplaceAll(s, ",", "")
	if s == "" {
		return 0, false
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, false
	}
	return v, true
}

// compareMetrics reports every drift between the baseline and the current
// run, sorted by key for stable output.
func compareMetrics(prev, cur map[string]float64, tol float64) []string {
	var out []string
	keys := make([]string, 0, len(prev)+len(cur))
	seen := make(map[string]struct{}, len(prev)+len(cur))
	for k := range prev {
		keys = append(keys, k)
		seen[k] = struct{}{}
	}
	for k := range cur {
		if _, dup := seen[k]; !dup {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		pv, inPrev := prev[k]
		cv, inCur := cur[k]
		switch {
		case !inPrev:
			out = append(out, fmt.Sprintf("%s: new metric %.4g (not in baseline)", k, cv))
		case !inCur:
			out = append(out, fmt.Sprintf("%s: metric vanished (baseline %.4g)", k, pv))
		default:
			denom := math.Max(math.Abs(pv), 1)
			if math.Abs(cv-pv)/denom > tol {
				out = append(out, fmt.Sprintf("%s: %.4g → %.4g (drift %.2f%% > %.2f%%)",
					k, pv, cv, 100*math.Abs(cv-pv)/denom, 100*tol))
			}
		}
	}
	return out
}

func readSnapshot(path string) (snapshotFile, error) {
	var sf snapshotFile
	data, err := os.ReadFile(path)
	if err != nil {
		return sf, err
	}
	if err := json.Unmarshal(data, &sf); err != nil {
		return sf, fmt.Errorf("parse %s: %w", path, err)
	}
	return sf, nil
}

func writeSnapshot(path string, sf snapshotFile) error {
	data, err := json.MarshalIndent(sf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// parseTables expands "1,2,8-10" into a sorted list of table numbers.
func parseTables(spec string) ([]int, error) {
	var out []int
	seen := make(map[int]struct{})
	add := func(n int) error {
		if n < 1 || n > 17 {
			return fmt.Errorf("table %d out of range 1–17", n)
		}
		if _, dup := seen[n]; !dup {
			seen[n] = struct{}{}
			out = append(out, n)
		}
		return nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			a, err1 := strconv.Atoi(strings.TrimSpace(lo))
			b, err2 := strconv.Atoi(strings.TrimSpace(hi))
			if err1 != nil || err2 != nil || a > b {
				return nil, fmt.Errorf("bad table range %q", part)
			}
			for n := a; n <= b; n++ {
				if err := add(n); err != nil {
					return nil, err
				}
			}
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad table number %q", part)
		}
		if err := add(n); err != nil {
			return nil, err
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no tables selected from %q", spec)
	}
	sort.Ints(out)
	return out, nil
}
