package core

import (
	"reflect"
	"testing"

	"reviewsolver/internal/ctxinfo"
	"reviewsolver/internal/synth"
)

// TestLocalizeByContextMatchesLocalize pins the single localizer table:
// running each context alone in table order, and the update localizer only
// when the other eight found nothing, must reproduce Localize exactly.
func TestLocalizeByContextMatchesLocalize(t *testing.T) {
	s := New()
	for _, seed := range []int64{3, 5, 7, 9} {
		data := synth.GenerateSample(seed)
		app := data.App
		for i, rv := range data.Reviews {
			current, previous, ok := app.ReleaseBefore(rv.PublishedAt)
			if !ok {
				current, previous = app.Releases[0], nil
			}
			info := s.StaticFor(current)
			ra := s.AnalyzeReview(rv.Text)

			var got []Mapping
			for _, l := range localizers {
				if l.ctx != ctxinfo.UpdatingApp {
					got = append(got, s.LocalizeByContext(l.ctx, ra, info, previous, current)...)
				}
			}
			if len(got) == 0 {
				got = s.LocalizeByContext(ctxinfo.UpdatingApp, ra, info, previous, current)
			}
			want := s.Localize(ra, info, previous, current)
			if got = dedupMappings(got); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d review %d: per-context mappings %v differ from Localize %v", seed, i, got, want)
			}
		}
	}
}
