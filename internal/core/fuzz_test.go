package core

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"reviewsolver/internal/apk"
	"reviewsolver/internal/snapfile"
	"reviewsolver/internal/synth"
	"reviewsolver/internal/textclass"
)

// typedLoadError reports whether a LoadSnapshotBytes failure is one of the
// documented typed errors: a snapfile container error or the core-level
// incompatibility sentinel. Anything else is a contract violation.
func typedLoadError(err error) bool {
	for _, want := range []error{
		snapfile.ErrBadMagic, snapfile.ErrVersion, snapfile.ErrTruncated,
		snapfile.ErrChecksum, snapfile.ErrMisaligned, snapfile.ErrCorrupt,
		ErrSnapshotIncompatible,
	} {
		if errors.Is(err, want) {
			return true
		}
	}
	return false
}

// FuzzLoadSnapshotBytes: hostile snapshot images must never panic the
// loader, and every rejection must be a typed error — the property the
// serving registry's quarantine path relies on.
func FuzzLoadSnapshotBytes(f *testing.F) {
	img, err := EncodeSnapshot(NewSnapshot(), synth.GenerateSample(1).App)
	if err != nil {
		f.Fatalf("encode seed snapshot: %v", err)
	}
	for _, seed := range loadFuzzSeedVariants(img) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, app, err := LoadSnapshotBytes(data)
		if err != nil {
			if !typedLoadError(err) {
				t.Fatalf("LoadSnapshotBytes returned an untyped error: %v", err)
			}
			return
		}
		if snap == nil || app == nil {
			t.Fatal("LoadSnapshotBytes returned nil snapshot/app without error")
		}
		// A loaded snapshot must be servable: building a solver view over it
		// cannot panic either.
		if s := NewWithSnapshot(snap); s == nil {
			t.Fatal("NewWithSnapshot returned nil for a loaded snapshot")
		}
	})
}

// typedAppError reports whether an app IR rejection is one of the typed
// errors apk.DecodeJSON and EncodeSnapshot document.
func typedAppError(err error) bool {
	var se *apk.ShapeError
	var oe *apk.ReleaseOrderError
	return errors.Is(err, apk.ErrDecode) || errors.As(err, &se) || errors.As(err, &oe)
}

// fuzzApp is a small valid app IR: two releases, a launcher activity with
// a layout, an app-internal call, framework calls, a toast message and an
// exception handler, so the fixed review reaches several localizers.
func fuzzApp() *apk.App {
	day := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	b := apk.NewBuilder("com.fuzz.mail", "FuzzMail")
	b.Release("1.0", 1, day).
		Permission("android.permission.INTERNET").
		LauncherActivity("com.fuzz.mail.MainActivity", "main").
		Layout("main", apk.Widget{Type: "LinearLayout", Children: []apk.Widget{
			{Type: "Button", ID: "send_mail", Text: "@string/send"},
		}}).
		StringRes("send", "Send mail")
	b.Class("com.fuzz.mail.MainActivity").
		Method("onCreate", apk.Invoke("", "com.fuzz.mail.Mailer", "sendMail"))
	b.Class("com.fuzz.mail.Mailer").
		Method("sendMail", apk.Catch("SocketException"), apk.Invoke("", "java.net.Socket", "connect")).
		Method("fetchMail", apk.ConstString("s", "Cannot fetch mail"),
			apk.Invoke("", "android.widget.Toast", "makeText", "s"))
	b.CopyRelease("1.1", 2, day.AddDate(0, 1, 0))
	b.Class("com.fuzz.mail.Sync").
		Method("syncAccount", apk.Invoke("", "com.fuzz.mail.Mailer", "fetchMail"))
	return b.Build()
}

// appJSONSeeds are the FuzzAppJSON seeds: the valid fuzzApp, the shapes no
// loader can serve (a null class, a null method, no release) and releases
// out of time order.
func appJSONSeeds(t testing.TB) [][]byte {
	marshal := func(app *apk.App) []byte {
		b, err := json.Marshal(app)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	valid := marshal(fuzzApp())
	reversed := fuzzApp()
	slices.Reverse(reversed.Releases)
	const rel = `{"version":"1.0","versionCode":1,"releasedAt":"2020-01-01T00:00:00Z",`
	return [][]byte{
		valid,
		[]byte(`{"package":"p","releases":[` + rel + `"classes":[null]}]}`),
		[]byte(`{"package":"p","releases":[` + rel + `"classes":[{"name":"p.A","methods":[null]}]}]}`),
		[]byte(`{"package":"p","releases":[]}`),
		marshal(reversed),
	}
}

// fuzzReview is the fixed review FuzzAppJSON localizes, published after
// every release the seeds hold.
const fuzzReview = "Cannot send mail, socket exception since the update. The send mail button does nothing."

// FuzzAppJSON: arbitrary bytes decoded as an IR file (apk.DecodeJSON),
// compiled (EncodeSnapshot) and loaded (LoadSnapshotBytes) never panic,
// every rejection is typed, and when all three succeed the fixed review
// localizes and ranks the same from the built and the loaded snapshot.
func FuzzAppJSON(f *testing.F) {
	for _, seed := range appJSONSeeds(f) {
		f.Add(seed)
	}
	when := time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC)
	f.Fuzz(func(t *testing.T, data []byte) {
		app, err := apk.DecodeJSON(data)
		if err != nil {
			if !typedAppError(err) {
				t.Fatalf("DecodeJSON returned an untyped error: %v", err)
			}
			return
		}
		sn := NewSnapshot()
		img, err := EncodeSnapshot(sn, app)
		if err != nil {
			if !typedAppError(err) {
				t.Fatalf("EncodeSnapshot returned an untyped error: %v", err)
			}
			return
		}
		loaded, lapp, err := LoadSnapshotBytes(img)
		if err != nil {
			if !typedLoadError(err) {
				t.Fatalf("LoadSnapshotBytes returned an untyped error: %v", err)
			}
			return
		}
		want := NewWithSnapshot(sn).LocalizeReview(app, fuzzReview, when)
		got := NewWithSnapshot(loaded).LocalizeReview(lapp, fuzzReview, when)
		if !reflect.DeepEqual(got.Mappings, want.Mappings) {
			t.Fatalf("loaded mappings %v, built %v", got.Mappings, want.Mappings)
		}
		if !reflect.DeepEqual(got.Ranked, want.Ranked) {
			t.Fatalf("loaded ranking %v, built %v", got.Ranked, want.Ranked)
		}
	})
}

// TestFuzzAppSeedLocalizes: the valid seed exercises the comparison
// FuzzAppJSON makes — the fixed review maps and ranks classes.
func TestFuzzAppSeedLocalizes(t *testing.T) {
	res := New().LocalizeReview(fuzzApp(), fuzzReview, time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC))
	if len(res.Ranked) == 0 {
		t.Fatal("the fixed review ranks no class of the seed app")
	}
}

// loadFuzzSeedVariants mutates a valid snapshot image toward the loader's
// validation branches: container-level corruption plus section payload
// damage that only the schema decoder can catch.
func loadFuzzSeedVariants(img []byte) [][]byte {
	flip := func(i int) []byte {
		m := append([]byte(nil), img...)
		m[i] ^= 0xFF
		return m
	}
	badVersion := append([]byte(nil), img...)
	binary.LittleEndian.PutUint32(badVersion[8:], snapfile.Version+1)
	return [][]byte{
		img,
		nil,
		img[:16],
		img[:len(img)/2],
		flip(0),
		flip(len(img) / 2),
		flip(len(img) - 1),
		badVersion,
	}
}

// TestWriteLoadFuzzSeeds regenerates the committed seed corpus under
// testdata/fuzz/FuzzLoadSnapshotBytes (same gate as the snapfile one):
//
//	REVIEWSOLVER_WRITE_FUZZ_SEEDS=1 go test -run TestWriteLoadFuzzSeeds ./internal/core
func TestWriteLoadFuzzSeeds(t *testing.T) {
	if os.Getenv("REVIEWSOLVER_WRITE_FUZZ_SEEDS") == "" {
		t.Skip("set REVIEWSOLVER_WRITE_FUZZ_SEEDS=1 to regenerate the seed corpus")
	}
	img, err := EncodeSnapshot(NewSnapshot(), synth.GenerateSample(1).App)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzLoadSnapshotBytes")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range loadFuzzSeedVariants(img) {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n"
		path := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// productionClassifier is the classifier reviewd installs: boosted trees
// trained on synth.TrainingCorpus(1), trained once per test process.
var productionClassifier = sync.OnceValues(func() (*textclass.Vectorizer, textclass.Classifier) {
	return textclass.TrainOn(synth.TrainingCorpus(1),
		func() textclass.Classifier { return textclass.NewBoostedTrees() })
})

// reviewTextSeeds are the FuzzReviewText seeds: empty text, non-ASCII
// bytes, negated error words, a quoted error message and a 40-sentence
// review that mixes error, praise, negation and request sentences.
func reviewTextSeeds() []string {
	templates := []string{
		"The app crashes when I open folder %d.",
		"I love theme %d!",
		"No bugs in sync %d, it never fails.",
		"Cannot login to account %d since the update.",
		"Please add widget %d?",
	}
	var long strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&long, templates[i%len(templates)]+" ", i)
	}
	return []string{
		"",
		"\x00\xff\xfe crash \xe2\x80\x94 érror 😀 won't sync\ttwice\n",
		"No bugs, never crashes. Not a single error!",
		"The app doesn't contain any errors. There are zero problems.",
		`It says "Cannot fetch mail: connection error" every time I open the inbox.`,
		long.String(),
	}
}

// FuzzReviewText passes arbitrary text through the production front end
// three times: twice through one long-lived solver (its sentence-cache
// miss, then its hit) and once through a fresh solver, whose sentence and
// phrase caches, spelling memo and analysis scratch start empty (only the
// immutable interner and the trained classifier are shared). All three must
// give a deep-equal ReviewAnalysis and the same IsErrorReview decision, and
// nothing may panic.
func FuzzReviewText(f *testing.F) {
	for _, s := range reviewTextSeeds() {
		f.Add(s)
	}
	vec, clf := productionClassifier()
	warm := New(WithClassifier(vec, clf))
	f.Fuzz(func(t *testing.T, text string) {
		first, firstErr := warm.AnalyzeReview(text), warm.IsErrorReview(text)
		again, againErr := warm.AnalyzeReview(text), warm.IsErrorReview(text)
		fresh := New(WithClassifier(vec, clf))
		cold, coldErr := fresh.AnalyzeReview(text), fresh.IsErrorReview(text)
		if !reflect.DeepEqual(again, first) {
			t.Fatalf("cached analysis %+v, first analysis %+v", again, first)
		}
		if !reflect.DeepEqual(cold, first) {
			t.Fatalf("fresh solver's analysis %+v, long-lived solver's %+v", cold, first)
		}
		if againErr != firstErr || coldErr != firstErr {
			t.Fatalf("IsErrorReview: first %v, cached %v, fresh %v", firstErr, againErr, coldErr)
		}
	})
}
