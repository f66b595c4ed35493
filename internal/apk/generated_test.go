package apk_test

import (
	"testing"

	"reviewsolver/internal/synth"
)

// TestGeneratedAppsValidate: every generated app IR must pass the apk
// validator (no dangling layout/string/activity references). The validator
// is test code of package apk, which this external test package reaches.
func TestGeneratedAppsValidate(t *testing.T) {
	for _, data := range append(synth.GenerateTable6(2), synth.GenerateTable14(2)...) {
		if issues := data.App.Validate(); len(issues) != 0 {
			t.Errorf("%s: %v", data.Info.Package, issues)
		}
	}
}
