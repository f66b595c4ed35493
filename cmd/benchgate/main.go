// Command benchgate is the CI bench gate: it regenerates the tier-1
// evaluation tables (the paper's Tables 1–16) with a fixed seed, writes one
// BENCH_<n>.json metric snapshot per table, and fails when the reproduced
// metrics drift from the previous snapshot beyond a tolerance.
//
// Behaviour:
//
//   - no prior BENCH_<n>.json for a table → the baseline is created and the
//     table is skipped cleanly (exit 0);
//   - prior snapshot present → every numeric cell shared by both runs is
//     compared with relative tolerance -tol; drifted cells, vanished cells,
//     and newly appearing cells all fail the gate (exit 1) and the stored
//     baseline is kept so the failure reproduces;
//   - -update rewrites the baselines from the current run and exits 0.
//
// Cells that do not parse as numbers (labels, durations in Table 15) are
// ignored, so wall-clock noise never fails the gate. Everything runs
// offline from the built-in generators.
//
// Usage:
//
//	benchgate [-dir bench] [-tol 0.02] [-tables 1,2,8-10] [-seed 1] [-update]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"reviewsolver/internal/experiments"
)

// snapshotFile is the on-disk schema of one BENCH_<n>.json.
type snapshotFile struct {
	Table   int                `json:"table"`
	ID      string             `json:"id"`
	Title   string             `json:"title"`
	Seed    int64              `json:"seed"`
	Metrics map[string]float64 `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		dir    = flag.String("dir", "bench", "directory holding BENCH_<n>.json snapshots")
		tol    = flag.Float64("tol", 0.02, "relative drift tolerance per metric")
		tables = flag.String("tables", "1-17", "tables to gate (comma list with ranges, e.g. 1,2,8-10)")
		seed   = flag.Int64("seed", 1, "generator seed (must match the stored baselines)")
		kernel = flag.Bool("kernel", true, "also gate the similarity-kernel scan snapshot (BENCH_KERNEL.json)")
		obsFlg = flag.Bool("obs", true, "also gate the telemetry registry snapshot (BENCH_OBS.json)")
		frontE = flag.Bool("frontend", true, "also gate front-end allocation counts and cache hit rate (BENCH_FRONTEND.json)")
		snapFl = flag.Bool("snapshot", true, "also gate the snapshot image structure and load equivalence (BENCH_SNAPSHOT.json)")
		srvFlg = flag.Bool("serve", true, "also gate the serving layer: response exactness, admission counts, failure mapping, perf pins (BENCH_SERVE.json)")
		fleetF = flag.Bool("fleetobs", true, "also gate fleet observability: labeled metrics, journal event sequence, SLO budget arithmetic, exactly (BENCH_FLEETOBS.json)")
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

	runner := experiments.NewRunner(*seed)
	failed := 0
	created := 0
	for _, n := range nums {
		tab, err := runner.TableByNumber(n)
		if err != nil {
			return err
		}
		cur := snapshotFile{
			Table:   n,
			ID:      tab.ID,
			Title:   tab.Title,
			Seed:    *seed,
			Metrics: tableMetrics(tab),
		}
		path := filepath.Join(*dir, fmt.Sprintf("BENCH_%d.json", n))
		madeBaseline, drifted, err := gateSnapshot(path, cur, *seed, *tol, *update, fmt.Sprintf("table %2d", n))
		if err != nil {
			return err
		}
		if madeBaseline {
			created++
		}
		if drifted {
			failed++
		}
	}
	if *kernel {
		cur := kernelSnapshot(*seed)
		path := filepath.Join(*dir, "BENCH_KERNEL.json")
		madeBaseline, drifted, err := gateSnapshot(path, cur, *seed, *tol, *update, "kernel  ")
		if err != nil {
			return err
		}
		if madeBaseline {
			created++
		}
		if drifted {
			failed++
		}
	}
	if *obsFlg {
		cur := obsSnapshot(*seed)
		path := filepath.Join(*dir, "BENCH_OBS.json")
		madeBaseline, drifted, err := gateSnapshot(path, cur, *seed, *tol, *update, "obs     ")
		if err != nil {
			return err
		}
		if madeBaseline {
			created++
		}
		if drifted {
			failed++
		}
	}
	if *frontE {
		cur, err := frontendSnapshot(*seed)
		if err != nil {
			return err
		}
		path := filepath.Join(*dir, "BENCH_FRONTEND.json")
		madeBaseline, drifted, err := gateSnapshot(path, cur, *seed, *tol, *update, "frontend")
		if err != nil {
			return err
		}
		if madeBaseline {
			created++
		}
		if drifted {
			failed++
		}
	}
	if *snapFl {
		cur, err := snapshotSnapshot(*seed)
		if err != nil {
			return err
		}
		path := filepath.Join(*dir, "BENCH_SNAPSHOT.json")
		madeBaseline, drifted, err := gateSnapshot(path, cur, *seed, *tol, *update, "snapshot")
		if err != nil {
			return err
		}
		if madeBaseline {
			created++
		}
		if drifted {
			failed++
		}
	}
	if *srvFlg {
		cur, err := serveSnapshot(*seed)
		if err != nil {
			return err
		}
		path := filepath.Join(*dir, "BENCH_SERVE.json")
		madeBaseline, drifted, err := gateSnapshot(path, cur, *seed, *tol, *update, "serve   ")
		if err != nil {
			return err
		}
		if madeBaseline {
			created++
		}
		if drifted {
			failed++
		}
	}
	if *fleetF {
		cur, err := fleetobsSnapshot(*seed)
		if err != nil {
			return err
		}
		path := filepath.Join(*dir, "BENCH_FLEETOBS.json")
		// Every fleetobs metric is a count or a budget from a
		// byte-deterministic scenario — gate with zero tolerance.
		madeBaseline, drifted, err := gateSnapshot(path, cur, *seed, 0, *update, "fleetobs")
		if err != nil {
			return err
		}
		if madeBaseline {
			created++
		}
		if drifted {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d snapshot(s) drifted beyond tolerance %.3f (use -update to accept)", failed, *tol)
	}
	if created > 0 {
		fmt.Printf("%d baseline(s) created; gate active on next run\n", created)
	}
	return nil
}

// gateSnapshot runs the create/compare/update cycle for one snapshot file.
// It reports whether a fresh baseline was created and whether the current run
// drifted from an existing one.
func gateSnapshot(path string, cur snapshotFile, seed int64, tol float64, update bool, label string) (madeBaseline, drifted bool, err error) {
	prev, err := readSnapshot(path)
	switch {
	case err != nil && os.IsNotExist(err):
		if err := writeSnapshot(path, cur); err != nil {
			return false, false, err
		}
		fmt.Printf("%s: baseline created (%d metrics) — skipped\n", label, len(cur.Metrics))
		return true, false, nil
	case err != nil:
		return false, false, fmt.Errorf("read %s: %w", path, err)
	}
	if prev.Seed != seed {
		return false, false, fmt.Errorf("%s: baseline seed %d does not match -seed %d (delete %s or rerun with the baseline seed)",
			label, prev.Seed, seed, path)
	}
	if update {
		if err := writeSnapshot(path, cur); err != nil {
			return false, false, err
		}
		fmt.Printf("%s: baseline updated (%d metrics)\n", label, len(cur.Metrics))
		return false, false, nil
	}
	drifts := compareMetrics(prev.Metrics, cur.Metrics, tol)
	if len(drifts) == 0 {
		fmt.Printf("%s: ok (%d metrics within %.1f%%)\n", label, len(cur.Metrics), 100*tol)
		return false, false, nil
	}
	fmt.Printf("%s: DRIFT (%d metrics)\n", label, len(drifts))
	for _, d := range drifts {
		fmt.Printf("  %s\n", d)
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
