package synth

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"reviewsolver/internal/apk"
	"reviewsolver/internal/ctxinfo"
	"reviewsolver/internal/textproc"
)

// errorFraction is the share of generated reviews that describe function
// errors (the remainder are praise, feature requests, and chatter).
const errorFraction = 0.35

// generateReviews produces the app's review corpus: error reviews written
// in the context styles of Table 1 (referencing planted faults) and
// non-error reviews, with the score skew of Table 3.
func generateReviews(spec appSpec, feats []feature, faults []Fault, app *apk.App, rng *rand.Rand) []Review {
	reviews := make([]Review, 0, spec.reviews)
	start := epoch.AddDate(0, 0, 7)
	end := app.Latest().ReleasedAt.AddDate(0, 2, 0)
	span := end.Sub(start)

	for i := 0; i < spec.reviews; i++ {
		published := start.Add(time.Duration(rng.Int63n(int64(span))))
		r := Review{ID: i, PublishedAt: published, FaultID: -1}
		if rng.Float64() < errorFraction {
			r.IsError = true
			fi := rng.Intn(len(faults))
			fault := faults[fi]
			feat := feats[fi]
			r.Context = pickContext(feat, rng)
			if r.Context != ctxinfo.Other {
				r.FaultID = fault.ID
				// A fifth of the users who hit a specific fault still
				// describe it without any usable context ("it just
				// crashes") — their ground-truth mapping exists (via the
				// bug report) but no system can recover it, which is why
				// the paper's #Total Map dwarfs every system's #Map.
				if rng.Float64() < 0.20 {
					r.Context = ctxinfo.Other
				}
			}
			r.Text = errorReviewText(r.Context, feat, rng)
			r.Score = errorScore(rng)
		} else {
			r.Context = ctxinfo.Other
			r.Text = nonErrorReviewText(feats, rng)
			r.Score = praiseScore(rng)
		}
		reviews = append(reviews, r)
	}
	return reviews
}

// pickContext samples a Table 1 context type compatible with the feature.
func pickContext(f feature, rng *rand.Rand) ctxinfo.Type {
	// Build the compatible set with Table 1 weights.
	type wt struct {
		t ctxinfo.Type
		w float64
	}
	cands := []wt{
		{ctxinfo.AppSpecificTask, ctxinfo.AppSpecificTask.Table1Percent()},
		{ctxinfo.UpdatingApp, ctxinfo.UpdatingApp.Table1Percent()},
		{ctxinfo.Other, ctxinfo.Other.Table1Percent()},
	}
	if len(f.widgetIDs) > 0 {
		cands = append(cands, wt{ctxinfo.GUI, ctxinfo.GUI.Table1Percent()})
	}
	if f.errorMessage != "" {
		cands = append(cands, wt{ctxinfo.ErrorMessage, ctxinfo.ErrorMessage.Table1Percent()})
	}
	if f.name == "open app" {
		cands = append(cands, wt{ctxinfo.OpeningApp, 40})
	}
	if f.name == "login account" {
		cands = append(cands, wt{ctxinfo.RegisteringAccount, 40})
	}
	if len(f.apis) > 0 || f.uri != "" || f.intentAction != "" {
		cands = append(cands, wt{ctxinfo.APIURIIntent, ctxinfo.APIURIIntent.Table1Percent()})
	}
	if f.generalTask != "" {
		cands = append(cands, wt{ctxinfo.GeneralTask, ctxinfo.GeneralTask.Table1Percent()})
	}
	if f.exception != "" {
		cands = append(cands, wt{ctxinfo.Exception, 3})
	}
	total := 0.0
	for _, c := range cands {
		total += c.w
	}
	x := rng.Float64() * total
	for _, c := range cands {
		x -= c.w
		if x <= 0 {
			return c.t
		}
	}
	return ctxinfo.Other
}

// verbSynonyms and objectSynonyms are the paraphrases users substitute for
// the app's own vocabulary ("fetch mail" → "get email"). Half of the
// generated error reviews use them, which is exactly the gap semantic
// matching closes and exact word matching cannot (§2.3 Example 1, §4.1.1).
var verbSynonyms = map[string][]string{
	"send": {"deliver", "submit"}, "fetch": {"get", "retrieve"},
	"upload": {"post", "publish"}, "download": {"get", "pull"},
	"save": {"store", "keep"}, "find": {"search", "locate"},
	"play": {"stream", "listen to"}, "open": {"launch", "start"},
	"load": {"open", "render"}, "sync": {"refresh", "synchronize"},
	"take": {"capture", "snap"}, "show": {"display", "view"},
	"verify": {"check", "validate"}, "backup": {"save", "export"},
	"record": {"capture", "tape"}, "post": {"publish", "share"},
	"search": {"find", "look up"}, "read": {"view", "browse"},
	"stream": {"play", "listen to"}, "log": {"record", "note"},
	"review": {"study", "practice"}, "unlock": {"open", "wake"},
	"encrypt": {"secure", "protect"}, "reply": {"respond", "answer"},
	"locate": {"find", "track"}, "delete": {"remove", "erase"},
	"login": {"sign in", "log in"},
}

var objectSynonyms = map[string][]string{
	"email": {"mail", "message"}, "mail": {"email", "messages"},
	"sms": {"text message", "texts"}, "message": {"sms", "text"},
	"photos": {"pictures", "pics", "images"}, "pictures": {"photos", "images"},
	"files": {"documents"}, "file": {"document"},
	"contact": {"contacts"}, "account": {"profile"},
	"episode": {"podcast", "show"}, "music": {"songs", "audio"},
	"timeline": {"feed", "stream"}, "articles": {"stories", "news"},
	"puzzle": {"crossword"}, "library": {"books", "collection"},
	"location": {"position", "gps"}, "route": {"directions", "path"},
	"cards": {"deck", "flashcards"}, "stats": {"statistics"},
	"game": {"match"}, "visit": {"log entry"}, "screen": {"display"},
	"notifications": {"alerts"}, "comment": {"reply"},
	"links": {"urls", "pages"}, "app": {"application"},
	"certificate": {"cert"}, "video": {"clip"},
}

// paraphrase substitutes user synonyms for the feature's own vocabulary in
// half of the reviews.
func paraphrase(f feature, rng *rand.Rand) (verb, object string) {
	verb, object = f.verb, f.object
	if rng.Intn(2) == 0 {
		if alts, ok := verbSynonyms[verb]; ok {
			verb = alts[rng.Intn(len(alts))]
		}
	}
	if rng.Intn(2) == 0 {
		if alts, ok := objectSynonyms[object]; ok {
			object = alts[rng.Intn(len(alts))]
		}
	}
	return verb, object
}

// errorReviewText renders an error review in the given context style.
func errorReviewText(t ctxinfo.Type, f feature, rng *rand.Rand) string {
	pick := func(opts ...string) string { return opts[rng.Intn(len(opts))] }
	pVerb, pObj := paraphrase(f, rng)
	verbObj := pVerb + " " + pObj
	var body string
	switch t {
	case ctxinfo.AppSpecificTask:
		body = pick(
			fmt.Sprintf("Keeps crashing every time i %s.", verbObj),
			fmt.Sprintf("The app fails when i try to %s.", verbObj),
			fmt.Sprintf("I cannot %s anymore, it just hangs.", verbObj),
			fmt.Sprintf("Crashes whenever i %s on my phone.", verbObj),
		)
	case ctxinfo.UpdatingApp:
		// A third of update complaints carry no secondary context — those
		// are the ones the diff-based localizer (§4.1.6) must handle.
		body = pick(
			fmt.Sprintf("App started crashing after recent update. Now i cannot %s.", verbObj),
			fmt.Sprintf("Since the new update i cannot %s anymore.", verbObj),
			"App started crashing after recent update.",
		)
	case ctxinfo.GUI:
		widgetWord := strings.Split(strings.ReplaceAll(f.widgetIDs[0], "_", " "), " ")[0]
		body = pick(
			fmt.Sprintf("The %s button now doesn't show, can't find any solutions.", widgetWord),
			fmt.Sprintf("The %s button is broken on my tablet.", widgetWord),
			fmt.Sprintf("%s issues everywhere, the screen is a mess.", upperFirst(f.object)),
		)
	case ctxinfo.ErrorMessage:
		body = pick(
			fmt.Sprintf("I receive an error message saying %q every time.", f.errorMessage),
			fmt.Sprintf("It just says %q and nothing happens.", f.errorMessage),
		)
	case ctxinfo.OpeningApp:
		body = pick(
			"It crashed every time i opened it.",
			"Crashes right after launch, cannot even open the app.",
			"The app won't start at all on my device.",
		)
	case ctxinfo.RegisteringAccount:
		body = pick(
			"Cannot login to my account.",
			"Registration does not work, the sign in page just spins.",
			"I cannot register a new account, it always fails.",
		)
	case ctxinfo.APIURIIntent:
		body = pick(
			fmt.Sprintf("But i cannot %s with it anymore.", verbObj),
			fmt.Sprintf("The app crashed when i tried to %s.", verbObj),
			fmt.Sprintf("Unable to %s on my phone.", verbObj),
		)
	case ctxinfo.GeneralTask:
		body = pick(
			fmt.Sprintf("Too many errors that prevent me to %s.", f.generalTask),
			fmt.Sprintf("I always get errors when i try to %s.", f.generalTask),
			fmt.Sprintf("Won't %s, keeps failing halfway.", f.generalTask),
		)
	case ctxinfo.Exception:
		body = fmt.Sprintf("There's a %s exception when it %ss.",
			exceptionWords(f.exception), f.verb)
	default: // Other: no usable context
		// More than half of the context-free complaints still contain
		// phrases that *look* localizable ("maybe when it syncs") — these
		// are the false mappings behind the paper's 70% precision
		// (Table 13's "cause of false mappings").
		body = pick(
			"Sometimes not working.",
			"Crash after crash. Uninstall very fast!",
			"Please fix the bug. i'm using xiaomi mi4c.",
			"Doesn't work properly anymore.",
			"It keeps crashing, maybe when it syncs data in the background.",
			"Randomly freezes, i think the notifications cause it.",
			"Breaks all the time, probably the login stuff.",
			"Something about loading pages makes it die.",
			"Dies constantly, could be the download queue or whatever.",
			"This app has started crashing more than a 737 airplane.",
		)
	}
	// Occasionally mix in a positive clause (exercises sentiment splitting)
	// or a preceding praise sentence.
	switch rng.Intn(5) {
	case 0:
		body = "It's a great app but " + lowerFirst(body)
	case 1:
		body = "I love the design. " + body
	}
	// Occasionally introduce shorthand (exercises normalization).
	if rng.Intn(6) == 0 {
		body = strings.ReplaceAll(body, "please", "pls")
		body = strings.ReplaceAll(body, "pictures", "pics")
	}
	return body
}

// exceptionWords converts an exception type name into review words
// ("SocketException" → "socket").
func exceptionWords(exception string) string {
	words := textproc.SplitIdentifier(exception)
	out := words[:0]
	for _, w := range words {
		if w == "exception" {
			continue
		}
		out = append(out, w)
	}
	return strings.Join(out, " ")
}

func lowerFirst(s string) string {
	if s == "" {
		return s
	}
	return strings.ToLower(s[:1]) + s[1:]
}

// nonErrorReviewText renders praise / feature requests / chatter.
func nonErrorReviewText(feats []feature, rng *rand.Rand) string {
	f := feats[rng.Intn(len(feats))]
	verbObj := f.verb + " " + f.object
	opts := []string{
		fmt.Sprintf("Great app, i use it every day to %s.", verbObj),
		fmt.Sprintf("Love how easy it is to %s.", verbObj),
		"Five stars, works perfectly on my phone.",
		fmt.Sprintf("Please add an option to %s in landscape mode.", verbObj),
		fmt.Sprintf("Would be nice to %s from the widget.", verbObj),
		"Beautiful design and very fast.",
		fmt.Sprintf("How do i %s with two accounts?", verbObj),
		"Best app in its category, highly recommend.",
		fmt.Sprintf("The %s feature is amazing.", f.object),
		"Thanks for the quick support response!",
	}
	return opts[rng.Intn(len(opts))]
}

// errorScore samples the Table 3 score distribution for error reviews:
// about a quarter of error reviews still rate 4–5 stars.
func errorScore(rng *rand.Rand) int {
	x := rng.Float64()
	switch {
	case x < 0.34:
		return 1
	case x < 0.53:
		return 2
	case x < 0.76:
		return 3
	case x < 0.95:
		return 4
	default:
		return 5
	}
}

// praiseScore samples scores for non-error reviews (mostly 4–5).
func praiseScore(rng *rand.Rand) int {
	x := rng.Float64()
	switch {
	case x < 0.06:
		return 1
	case x < 0.12:
		return 2
	case x < 0.25:
		return 3
	case x < 0.45:
		return 4
	default:
		return 5
	}
}

// generateBugReports emits one issue-tracker entry per fault (Fig. 5).
func generateBugReports(feats []feature, faults []Fault) []BugReport {
	out := make([]BugReport, 0, len(faults))
	for i, fault := range faults {
		f := feats[i]
		out = append(out, BugReport{
			ID:      1000 + fault.ID,
			FaultID: fault.ID,
			Title:   fmt.Sprintf("Crash when trying to %s %s", f.verb, f.object),
			Body: fmt.Sprintf(
				"Steps to reproduce: open the %s screen and %s. The app fails with %q.",
				f.activityBase, f.verb+" "+f.object, f.errorMessage),
			FixedClasses: append([]string(nil), fault.Classes...),
		})
	}
	return out
}

// generateReleaseNotes emits the per-release changelog (Fig. 6).
func generateReleaseNotes(app *apk.App, feats []feature, faults []Fault) []ReleaseNote {
	var out []ReleaseNote
	for v := 1; v < len(app.Releases); v++ {
		note := ReleaseNote{Version: app.Releases[v].Version}
		for i, fault := range faults {
			if fault.FixedIn != v {
				continue
			}
			f := feats[i]
			note.Lines = append(note.Lines,
				fmt.Sprintf("Fixed: %s %s failure", f.verb, f.object))
			note.FaultIDs = append(note.FaultIDs, fault.ID)
		}
		if len(note.FaultIDs) == 0 {
			continue
		}
		note.ChangedClasses = apk.DiffReleases(app.Releases[v-1], app.Releases[v])
		out = append(out, note)
	}
	return out
}
