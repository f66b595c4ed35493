package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"reviewsolver/internal/apk"
	"reviewsolver/internal/code2vec"
	"reviewsolver/internal/core"
	"reviewsolver/internal/synth"
	"reviewsolver/internal/textclass"
)

// servedGolden is the committed digest of the served output of the seed-1
// corpus (TestServedOutputGolden).
var servedGolden = filepath.Join("testdata", "served_golden.json")

// goldenSeed is the corpus and classifier seed the golden was taken at.
const goldenSeed = 1

// Golden modes: how the app is compiled and served.
const (
	goldenPlain       = "plain"        // §4.3 ranking
	goldenChangeAware = "change-aware" // core.WithChangeAwareRank
	goldenObfuscated  = "obfuscated"   // every release obfuscated, Code2vec summaries
	goldenExplain     = "explain"      // explain-trace JSON
)

// goldenEntry is the digest of one (app, mode) stream: the SHA-256 over
// every review's record, and each record's own short digest (the first four
// bytes of its SHA-256, hex) so a mismatch names the first review that moved.
type goldenEntry struct {
	App       string `json:"app"`
	Mode      string `json:"mode"`
	Reviews   int    `json:"reviews"`
	SHA256    string `json:"sha256"`
	PerReview string `json:"per_review"`
}

type goldenFile struct {
	Seed    int           `json:"seed"`
	Entries []goldenEntry `json:"entries"`
}

// goldenStream accumulates one (app, mode) entry. texts keeps the review
// texts so a failure can quote the first differing one.
type goldenStream struct {
	entry goldenEntry
	sum   []byte
	texts []string
}

func newGoldenStream(app, mode string) *goldenStream {
	return &goldenStream{entry: goldenEntry{App: app, Mode: mode}}
}

// add appends one review's record: its classifier decision and its served
// bytes.
func (g *goldenStream) add(text string, isError bool, served []byte) {
	rec := make([]byte, 0, len(served)+9)
	if isError {
		rec = append(rec, 1)
	} else {
		rec = append(rec, 0)
	}
	rec = binary.LittleEndian.AppendUint64(rec, uint64(len(served)))
	rec = append(rec, served...)
	h := sha256.Sum256(rec)
	g.sum = append(g.sum, h[:]...)
	g.entry.PerReview += hex.EncodeToString(h[:4])
	g.entry.Reviews++
	g.texts = append(g.texts, text)
}

func (g *goldenStream) done() goldenEntry {
	h := sha256.Sum256(g.sum)
	g.entry.SHA256 = hex.EncodeToString(h[:])
	return g.entry
}

// goldenLoad compiles app with EncodeSnapshot over sn and loads the image
// back with LoadSnapshotBytes, as reviewd serves it.
func goldenLoad(t *testing.T, sn *core.Snapshot, app *apk.App, opts ...core.Option) (*core.Snapshot, *apk.App) {
	t.Helper()
	img, err := core.EncodeSnapshot(sn, app)
	if err != nil {
		t.Fatalf("%s: EncodeSnapshot: %v", app.Package, err)
	}
	loaded, lapp, err := core.LoadSnapshotBytes(img, opts...)
	if err != nil {
		t.Fatalf("%s: LoadSnapshotBytes: %v", app.Package, err)
	}
	return loaded, lapp
}

// servedStreams serves every review of the 28 Table 6 + 14 apps at the
// golden seed and digests the output per app and mode.
func servedStreams(t *testing.T) []*goldenStream {
	t.Helper()
	// The classifier reviewd trains at boot (-seed 1).
	vec, clf := textclass.TrainOn(synth.TrainingCorpus(goldenSeed),
		func() textclass.Classifier { return textclass.NewBoostedTrees() })
	classify := core.WithClassifier(vec, clf)

	table6 := synth.GenerateTable6(goldenSeed)
	apps := append(append([]*synth.AppData(nil), table6...), synth.GenerateTable14(goldenSeed)...)

	var out []*goldenStream
	sn := core.NewSnapshot()
	for _, data := range apps {
		snap, app := goldenLoad(t, sn, data.App, classify)
		out = append(out,
			servedStream(t, goldenPlain, data, app, core.NewWithSnapshot(snap)),
			servedStream(t, goldenChangeAware, data, app, core.NewWithSnapshot(snap, core.WithChangeAwareRank())))

		if data.Info.Package != "com.fsck.k9" {
			continue
		}
		explain := newGoldenStream(data.Info.Package, goldenExplain)
		solver := core.NewWithSnapshot(snap)
		for _, rv := range data.Reviews {
			res, tr := solver.LocalizeReviewTraced(app, rv.Text, rv.PublishedAt)
			b, err := tr.JSON()
			if err != nil {
				t.Fatal(err)
			}
			explain.add(rv.Text, res.IsError, b)
		}
		out = append(out, explain, obfuscatedStream(t, data, table6, classify))
	}
	return out
}

// obfuscatedStream serves K-9 with every release obfuscated, from an image
// compiled with a Code2vec summarizer trained on the other Table 6 apps'
// latest releases (the §3.3.2 obfuscation experiment).
func obfuscatedStream(t *testing.T, data *synth.AppData, table6 []*synth.AppData, classify core.Option) *goldenStream {
	t.Helper()
	model := code2vec.NewModel()
	for _, other := range table6 {
		if other.Info.Package != data.Info.Package {
			model.TrainRelease(other.App.Latest())
		}
	}
	obf := &apk.App{Package: data.App.Package, Name: data.App.Name}
	for _, r := range data.App.Releases {
		obf.Releases = append(obf.Releases, synth.Obfuscate(r))
	}
	snap, app := goldenLoad(t, core.NewSnapshot(core.WithSummarizer(model)), obf, classify)
	return servedStream(t, goldenObfuscated, data, app, core.NewWithSnapshot(snap))
}

// servedStream localizes every review of data against app and digests the
// ResultToJSON bytes under mode.
func servedStream(t *testing.T, mode string, data *synth.AppData, app *apk.App, solver *core.Solver) *goldenStream {
	t.Helper()
	st := newGoldenStream(data.Info.Package, mode)
	for _, rv := range data.Reviews {
		res := solver.LocalizeReview(app, rv.Text, rv.PublishedAt)
		b, err := json.Marshal(ResultToJSON(rv.Text, res))
		if err != nil {
			t.Fatal(err)
		}
		st.add(rv.Text, res.IsError, b)
	}
	return st
}

// TestServedOutputGolden pins the served output of the seed-1 corpus: for
// every review of the 28 Table 6 + 14 apps, the classifier's decision and
// the ResultToJSON bytes under plain and change-aware ranking, plus K-9's
// explain traces and obfuscated K-9 served with Code2vec summaries. Every
// app is compiled with EncodeSnapshot and served from LoadSnapshotBytes
// with the boosted trees reviewd trains. A mismatch names the app, the mode
// and the first review whose record moved. `go test -run
// TestServedOutputGolden ./internal/serve -update` rewrites the file; a
// rewrite is a deliberate output change and CHANGES.md says why.
func TestServedOutputGolden(t *testing.T) {
	streams := servedStreams(t)
	got := make([]goldenEntry, len(streams))
	for i, st := range streams {
		got[i] = st.done()
	}
	sort.Slice(got, func(i, j int) bool {
		if got[i].App != got[j].App {
			return got[i].App < got[j].App
		}
		return got[i].Mode < got[j].Mode
	})
	if *update {
		data, err := json.MarshalIndent(goldenFile{Seed: goldenSeed, Entries: got}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(servedGolden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(servedGolden)
	if err != nil {
		t.Fatal(err)
	}
	var golden goldenFile
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatalf("parse %s: %v", servedGolden, err)
	}
	if golden.Seed != goldenSeed {
		t.Fatalf("%s was taken at seed %d, want %d", servedGolden, golden.Seed, goldenSeed)
	}
	want := make(map[[2]string]goldenEntry, len(golden.Entries))
	for _, e := range golden.Entries {
		want[[2]string{e.App, e.Mode}] = e
	}
	texts := make(map[[2]string][]string, len(streams))
	for _, st := range streams {
		texts[[2]string{st.entry.App, st.entry.Mode}] = st.texts
	}
	for _, g := range got {
		key := [2]string{g.App, g.Mode}
		w, ok := want[key]
		delete(want, key)
		switch {
		case !ok:
			t.Errorf("%s/%s: not in %s", g.App, g.Mode, servedGolden)
		case g.SHA256 == w.SHA256:
		case g.Reviews != w.Reviews:
			t.Errorf("%s/%s: %d reviews, golden has %d", g.App, g.Mode, g.Reviews, w.Reviews)
		default:
			i := firstDiffering(g.PerReview, w.PerReview)
			t.Errorf("%s/%s: served output differs from the golden; first differing review #%d: %q",
				g.App, g.Mode, i, texts[key][i])
		}
	}
	for key := range want {
		t.Errorf("%s/%s: in %s but not served", key[0], key[1], servedGolden)
	}
}

// firstDiffering returns the index of the first review whose short digest
// differs (the last one when only the combined SHA-256 does).
func firstDiffering(got, want string) int {
	const w = 8 // hex chars per review
	for i := 0; i+w <= len(got) && i+w <= len(want); i += w {
		if got[i:i+w] != want[i:i+w] {
			return i / w
		}
	}
	return len(got)/w - 1
}

// TestGoldenStreamNamesFirstDifference: the per-review digests locate the
// first review whose record changed.
func TestGoldenStreamNamesFirstDifference(t *testing.T) {
	a, b := newGoldenStream("app", "plain"), newGoldenStream("app", "plain")
	for i, rec := range []string{"x", "y", "z"} {
		a.add(rec, true, []byte(rec))
		if i == 1 {
			rec = strings.ToUpper(rec)
		}
		b.add(rec, true, []byte(rec))
	}
	ga, gb := a.done(), b.done()
	if ga.SHA256 == gb.SHA256 {
		t.Fatal("different streams share a SHA-256")
	}
	if i := firstDiffering(ga.PerReview, gb.PerReview); i != 1 {
		t.Fatalf("first differing review = %d, want 1", i)
	}
}
