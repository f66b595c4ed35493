package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// sharedRunner is reused across tests in this package: the evaluation over
// 28 apps is the expensive part and is deterministic.
var sharedRunner = NewRunner(1)

func cellInt(t *testing.T, s string) int {
	t.Helper()
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		t.Fatalf("cell %q is not an int: %v", s, err)
	}
	return n
}

func totalsRow(t *testing.T, tab *Table) []string {
	t.Helper()
	for _, row := range tab.Rows {
		for _, c := range row {
			if c == "Total" {
				return row
			}
		}
	}
	t.Fatalf("%s has no Total row", tab.ID)
	return nil
}

func TestTable1Shape(t *testing.T) {
	tab := sharedRunner.Table1()
	if len(tab.Rows) != 10 {
		t.Fatalf("Table 1 rows = %d, want 10 context types", len(tab.Rows))
	}
	counts := map[string]int{}
	for _, row := range tab.Rows {
		counts[row[0]] = cellInt(t, row[1])
	}
	if counts["App Specific Task"] <= counts["Exception"] {
		t.Errorf("Table 1 shape off: %v", counts)
	}
}

func TestTable2BoostedTreesCompetitive(t *testing.T) {
	tab := sharedRunner.Table2()
	if len(tab.Rows) != 5 {
		t.Fatalf("Table 2 rows = %d", len(tab.Rows))
	}
	f1 := map[string]float64{}
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[3], "%"), 64)
		if err != nil {
			t.Fatalf("bad F1 cell %q", row[3])
		}
		f1[row[0]] = v
	}
	if f1["Boosted regression trees"] < 85 {
		t.Errorf("BRT F1 = %.1f, want >= 85", f1["Boosted regression trees"])
	}
}

func TestTable3MatchesPaperCounts(t *testing.T) {
	tab := sharedRunner.Table3()
	want := map[string][2]int{
		"1": {150, 112}, "2": {97, 64}, "3": {118, 75}, "4": {155, 64}, "5": {380, 18},
	}
	for _, row := range tab.Rows {
		w, ok := want[row[0]]
		if !ok {
			continue
		}
		if cellInt(t, row[1]) != w[0] || cellInt(t, row[2]) != w[1] {
			t.Errorf("Table 3 row %s = %v, want %v", row[0], row[1:], w)
		}
	}
}

func TestTable4SentiStrengthDominates(t *testing.T) {
	tab := sharedRunner.Table4()
	tot := totalsRow(t, tab)
	ss, nltk, stanford := cellInt(t, tot[3]), cellInt(t, tot[4]), cellInt(t, tot[5])
	if ss <= nltk || ss <= stanford {
		t.Errorf("Table 4 shape: SentiStrength=%d NLTK=%d Stanford=%d", ss, nltk, stanford)
	}
	manual := cellInt(t, tot[2])
	if ss > manual {
		t.Errorf("tool found more negatives (%d) than manual truth (%d)", ss, manual)
	}
}

func TestTable5AllPatternsMatched(t *testing.T) {
	tab := sharedRunner.Table5()
	if len(tab.Rows) != 4 {
		t.Fatalf("Table 5 rows = %d", len(tab.Rows))
	}
	total := 0
	for _, row := range tab.Rows {
		total += cellInt(t, row[2])
	}
	if total < 90 {
		t.Errorf("patterns matched %d/100 sentences, want >= 90", total)
	}
}

func TestTable6Inventory(t *testing.T) {
	tab := sharedRunner.Table6()
	if len(tab.Rows) != 18 {
		t.Errorf("Table 6 rows = %d, want 18", len(tab.Rows))
	}
}

func TestTable7MaalejRecallLower(t *testing.T) {
	tab := sharedRunner.Table7()
	if len(tab.Rows) != 2 {
		t.Fatalf("Table 7 rows = %d", len(tab.Rows))
	}
	recall := func(row []string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[2], "%"), 64)
		if err != nil {
			t.Fatalf("bad recall cell %q", row[2])
		}
		return v
	}
	ciu, maa := recall(tab.Rows[0]), recall(tab.Rows[1])
	if maa >= ciu {
		t.Errorf("Maalej recall (%.1f) should trail Ciurumelea (%.1f) due to implicit errors", maa, ciu)
	}
	if ciu < 70 {
		t.Errorf("Ciurumelea recall = %.1f, want >= 70", ciu)
	}
}

func TestTable8RSBeatsBaselines(t *testing.T) {
	tab := sharedRunner.Table8()
	if len(tab.Rows) != 9 { // 8 apps + total
		t.Fatalf("Table 8 rows = %d, want 9", len(tab.Rows))
	}
	tot := totalsRow(t, tab)
	total, rs, ca, w2c := cellInt(t, tot[2]), cellInt(t, tot[3]), cellInt(t, tot[4]), cellInt(t, tot[5])
	if total == 0 {
		t.Fatal("no ground-truth pairs")
	}
	if !(rs > w2c && w2c > ca) {
		t.Errorf("Table 8 ordering violated: RS=%d W2C=%d CA=%d", rs, w2c, ca)
	}
	if rs < total/20 {
		t.Errorf("RS recovered %d/%d GT pairs — too few", rs, total)
	}
}

func TestTable9RSBeatsBaselines(t *testing.T) {
	tab := sharedRunner.Table9()
	if len(tab.Rows) != 7 { // 6 apps + total
		t.Fatalf("Table 9 rows = %d, want 7", len(tab.Rows))
	}
	tot := totalsRow(t, tab)
	rs, ca := cellInt(t, tot[3]), cellInt(t, tot[4])
	if rs <= ca {
		t.Errorf("Table 9 ordering violated: RS=%d CA=%d", rs, ca)
	}
}

func TestTable10Complementarity(t *testing.T) {
	tab := sharedRunner.Table10()
	if len(tab.Rows) != 2 {
		t.Fatalf("Table 10 rows = %d", len(tab.Rows))
	}
	// RS∩¬CA must dominate RS∩CA (RS finds mappings CA cannot).
	bug := tab.Rows[0]
	if cellInt(t, bug[2]) <= cellInt(t, bug[1]) {
		t.Errorf("RS∩¬CA (%s) should exceed RS∩CA (%s)", bug[2], bug[1])
	}
}

func TestTable11ResolutionRates(t *testing.T) {
	tab := sharedRunner.Table11()
	if len(tab.Rows) != 19 {
		t.Fatalf("Table 11 rows = %d, want 19", len(tab.Rows))
	}
	tot := totalsRow(t, tab)
	errN, rs, ca := cellInt(t, tot[2]), cellInt(t, tot[3]), cellInt(t, tot[4])
	rsRate := float64(rs) / float64(errN)
	caRate := float64(ca) / float64(errN)
	if rsRate < 0.40 || rsRate > 0.80 {
		t.Errorf("RS resolution rate = %.2f, want ≈ 0.58 (paper 57.9%%)", rsRate)
	}
	if caRate >= rsRate/2 {
		t.Errorf("CA rate (%.2f) should be far below RS (%.2f)", caRate, rsRate)
	}
}

func TestTable12ContextShape(t *testing.T) {
	tab := sharedRunner.Table12()
	counts := map[string]int{}
	for _, row := range tab.Rows {
		counts[row[0]] = cellInt(t, row[1])
	}
	if counts["App Specific Task"] == 0 || counts["General Task"] == 0 {
		t.Errorf("dominant contexts empty: %v", counts)
	}
	if counts["Exception"] > counts["App Specific Task"] {
		t.Errorf("Exception should be rare: %v", counts)
	}
}

func TestTable13Precision(t *testing.T) {
	tab := sharedRunner.Table13()
	tot := totalsRow(t, tab)
	parts := strings.Split(tot[2], "/")
	correct, checked := cellInt(t, parts[0]), cellInt(t, parts[1])
	if checked == 0 {
		t.Fatal("no mappings checked")
	}
	prec := float64(correct) / float64(checked)
	if prec < 0.45 || prec > 0.95 {
		t.Errorf("precision = %.2f (%d/%d), want ≈ 0.70", prec, correct, checked)
	}
}

func TestTable14AdditionalApps(t *testing.T) {
	tab := sharedRunner.Table14()
	if len(tab.Rows) != 11 {
		t.Fatalf("Table 14 rows = %d, want 11", len(tab.Rows))
	}
	tot := totalsRow(t, tab)
	rs, ca := cellInt(t, tot[3]), cellInt(t, tot[4])
	if rs <= ca {
		t.Errorf("Table 14 ordering violated: RS=%d CA=%d", rs, ca)
	}
}

// TestTable15Timing pins Table 15's rows, the nine localizers in the
// paper's order; its cells are durations, so benchgate has no Table 15 gate.
func TestTable15Timing(t *testing.T) {
	tab := sharedRunner.Table15()
	want := []string{"General Task", "App Specific Task", "API/URI/intent", "Opening App",
		"Registering Account", "Error Message", "GUI", "Updating App", "Exception"}
	if len(tab.Rows) != len(want) {
		t.Fatalf("Table 15 rows = %d, want %d", len(tab.Rows), len(want))
	}
	for i, row := range tab.Rows {
		if row[0] != want[i] {
			t.Errorf("Table 15 row %d is %q, want %q", i, row[0], want[i])
		}
		if row[1] == "" {
			t.Errorf("context %s has empty timing", row[0])
		}
	}
}

func TestTable16IOS(t *testing.T) {
	tab := sharedRunner.Table16()
	if len(tab.Rows) != 6 {
		t.Fatalf("Table 16 rows = %d, want 6", len(tab.Rows))
	}
	tot := totalsRow(t, tab)
	if cellInt(t, tot[1]) != 1121 {
		t.Errorf("iOS review total = %s, want 1121", tot[1])
	}
}

func TestTableByNumber(t *testing.T) {
	if _, err := sharedRunner.TableByNumber(0); err == nil {
		t.Error("table 0 should error")
	}
	tab, err := sharedRunner.TableByNumber(6)
	if err != nil || tab.ID != "Table 6" {
		t.Errorf("TableByNumber(6) = %v, %v", tab, err)
	}
}

func TestTableRendering(t *testing.T) {
	tab := sharedRunner.Table6()
	text := tab.String()
	if !strings.Contains(text, "Table 6") || !strings.Contains(text, "K-9 Mail") {
		t.Errorf("text rendering incomplete:\n%s", text)
	}
	md := tab.Markdown()
	if !strings.Contains(md, "| APK Id |") && !strings.Contains(md, "APK Id |") {
		t.Errorf("markdown rendering incomplete:\n%s", md)
	}
}
