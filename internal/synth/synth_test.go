package synth

import (
	"reflect"
	"testing"

	"reviewsolver/internal/ctxinfo"
)

func TestGenerateAppDeterministic(t *testing.T) {
	a := GenerateApp(table6Apps[4], 99) // K-9 Mail
	b := GenerateApp(table6Apps[4], 99)
	if a.Reviews[0].Text != b.Reviews[0].Text || len(a.Reviews) != len(b.Reviews) {
		t.Error("generation not deterministic")
	}
	if !reflect.DeepEqual(a.Faults, b.Faults) {
		t.Error("faults not deterministic")
	}
}

func TestGeneratedAppStructure(t *testing.T) {
	d := GenerateApp(table6Apps[4], 1) // K-9 Mail: 8 versions, bug reports + notes
	if len(d.App.Releases) != 8 {
		t.Errorf("releases = %d, want 8", len(d.App.Releases))
	}
	if _, ok := d.App.Latest().StartingActivity(); !ok {
		t.Error("no starting activity")
	}
	if len(d.App.Latest().Classes) < 10 {
		t.Errorf("only %d classes", len(d.App.Latest().Classes))
	}
	if len(d.BugReports) == 0 || len(d.ReleaseNotes) == 0 {
		t.Errorf("K-9 must have bug reports (%d) and release notes (%d)",
			len(d.BugReports), len(d.ReleaseNotes))
	}
	if len(d.Reviews) != table6Apps[4].reviews {
		t.Errorf("reviews = %d, want %d", len(d.Reviews), table6Apps[4].reviews)
	}
}

func TestFaultClassesExist(t *testing.T) {
	d := GenerateApp(table6Apps[2], 3) // Signal
	r := d.App.Latest()
	for _, f := range d.Faults {
		for _, cls := range f.Classes {
			if _, ok := r.FindClass(cls); !ok {
				t.Errorf("fault %d references missing class %s", f.ID, cls)
			}
		}
	}
}

func TestFaultFixSchedule(t *testing.T) {
	d := GenerateApp(table6Apps[4], 1)
	for _, f := range d.Faults {
		if f.FixedIn < 1 || f.FixedIn >= len(d.App.Releases) {
			t.Errorf("fault %d fixed in invalid release %d", f.ID, f.FixedIn)
		}
	}
	// Single-version apps never fix faults.
	focal := GenerateApp(table6Apps[6], 1)
	for _, f := range focal.Faults {
		if f.FixedIn != -1 {
			t.Errorf("single-version app fixed fault at %d", f.FixedIn)
		}
	}
}

func TestReleaseNotesMatchDiffs(t *testing.T) {
	d := GenerateApp(table6Apps[4], 1)
	for _, note := range d.ReleaseNotes {
		if len(note.FaultIDs) == 0 {
			t.Error("release note without fixed faults")
		}
		if len(note.ChangedClasses) == 0 {
			t.Errorf("release note %s has no changed classes", note.Version)
		}
		// Each fixed fault's worker class must be among the changed files.
		for _, fid := range note.FaultIDs {
			fault, ok := d.FaultByID(fid)
			if !ok {
				t.Fatalf("note references unknown fault %d", fid)
			}
			worker := fault.Classes[len(fault.Classes)-1]
			found := false
			for _, c := range note.ChangedClasses {
				if c == worker {
					found = true
				}
			}
			if !found {
				t.Errorf("fix for fault %d not in changed classes %v", fid, note.ChangedClasses)
			}
		}
	}
}

func TestBugReportsCoverFaults(t *testing.T) {
	d := GenerateApp(table6Apps[9], 1) // WordPress
	if len(d.BugReports) != len(d.Faults) {
		t.Errorf("bug reports = %d, faults = %d", len(d.BugReports), len(d.Faults))
	}
	for _, br := range d.BugReports {
		if len(br.FixedClasses) == 0 {
			t.Errorf("bug report %d has no fixed classes", br.ID)
		}
	}
}

func TestErrorReviewsHaveFaults(t *testing.T) {
	d := GenerateApp(table6Apps[0], 1)
	errCount := 0
	for _, r := range d.Reviews {
		if !r.IsError {
			if r.FaultID != -1 {
				t.Error("non-error review linked to fault")
			}
			continue
		}
		errCount++
		if r.Context != ctxinfo.Other && r.FaultID < 0 {
			t.Errorf("contextful error review %d has no fault", r.ID)
		}
	}
	frac := float64(errCount) / float64(len(d.Reviews))
	if frac < 0.25 || frac > 0.45 {
		t.Errorf("error fraction = %.2f, want ≈ 0.35", frac)
	}
}

func TestGenerateTable6(t *testing.T) {
	apps := GenerateTable6(1)
	if len(apps) != 18 {
		t.Fatalf("generated %d apps, want 18", len(apps))
	}
	bugApps, noteApps := 0, 0
	total := 0
	for _, a := range apps {
		total += len(a.Reviews)
		if len(a.BugReports) > 0 {
			bugApps++
		}
		if len(a.ReleaseNotes) > 0 {
			noteApps++
		}
	}
	if bugApps != 8 {
		t.Errorf("apps with bug reports = %d, want 8 (Table 8)", bugApps)
	}
	if noteApps != 6 {
		t.Errorf("apps with release notes = %d, want 6 (Table 9)", noteApps)
	}
	if total < 5000 {
		t.Errorf("total reviews = %d, suspiciously few", total)
	}
}

func TestGenerateTable14(t *testing.T) {
	apps := GenerateTable14(1)
	if len(apps) != 10 {
		t.Fatalf("generated %d apps, want 10", len(apps))
	}
}

func TestTrainingCorpus(t *testing.T) {
	docs := TrainingCorpus(7)
	if len(docs) != 1400 {
		t.Fatalf("corpus size = %d, want 1400", len(docs))
	}
	pos := 0
	for _, d := range docs {
		if d.Label {
			pos++
		}
	}
	if pos != 700 {
		t.Errorf("positive docs = %d, want 700", pos)
	}
}

func TestLabeledDatasetShapes(t *testing.T) {
	ciu := CiurumeleaDataset(7)
	if len(ciu) != 199 {
		t.Errorf("Ciurumelea size = %d, want 199", len(ciu))
	}
	pos := 0
	for _, d := range ciu {
		if d.Label {
			pos++
		}
	}
	if pos != 87 {
		t.Errorf("Ciurumelea positives = %d, want 87", pos)
	}

	maa := MaalejDataset(7)
	if len(maa) != 747 {
		t.Errorf("Maalej size = %d, want 747", len(maa))
	}
	pos = 0
	for _, d := range maa {
		if d.Label {
			pos++
		}
	}
	if pos != 369 {
		t.Errorf("Maalej positives = %d, want 369", pos)
	}
}

func TestScoreSample(t *testing.T) {
	sample := ScoreSample(7)
	if len(sample) != 900 {
		t.Fatalf("sample size = %d, want 900", len(sample))
	}
	perScore := make(map[int]int)
	errPerScore := make(map[int]int)
	for _, r := range sample {
		perScore[r.Score]++
		if r.IsError {
			errPerScore[r.Score]++
		}
	}
	for _, row := range scoreSampleShape {
		if perScore[row.score] != row.total {
			t.Errorf("score %d count = %d, want %d", row.score, perScore[row.score], row.total)
		}
		if errPerScore[row.score] != row.errors {
			t.Errorf("score %d errors = %d, want %d", row.score, errPerScore[row.score], row.errors)
		}
	}
}

func TestContextSample(t *testing.T) {
	apps := GenerateTable6(1)
	sample := ContextSample(apps, 250, 9)
	if len(sample) != 250 {
		t.Fatalf("context sample = %d, want 250", len(sample))
	}
	counts := make(map[ctxinfo.Type]int)
	for _, c := range sample {
		counts[c]++
	}
	// App Specific Task must be the most common specific context and Other
	// must be substantial — the Table 1 shape.
	if counts[ctxinfo.AppSpecificTask] < counts[ctxinfo.GUI] {
		t.Errorf("context shape off: %v", counts)
	}
	if counts[ctxinfo.Other] < 20 {
		t.Errorf("too few Other contexts: %v", counts)
	}
}

func TestSummary(t *testing.T) {
	d := GenerateApp(table6Apps[6], 1)
	s := d.Summary()
	if s == "" || len(s) < 20 {
		t.Errorf("Summary = %q", s)
	}
}
