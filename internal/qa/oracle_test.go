package qa

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"reviewsolver/internal/sdk"
	"reviewsolver/internal/textproc"
)

// linearIndex is the reference Algorithm 2: every indexed question's title
// words and APIs, scanned in full by topAPIs. It is the scan the posting
// index replaced, kept to prove the index exact.
type linearIndex []linearQuestion

type linearQuestion struct {
	titleWords map[string]struct{}
	apis       []APIRef
}

func newLinearIndex(catalog *sdk.Catalog, questions []Question) linearIndex {
	var idx linearIndex
	for _, q := range questions {
		iq := linearQuestion{titleWords: make(map[string]struct{})}
		for _, w := range textproc.Words(q.Title) {
			iq.titleWords[w] = struct{}{}
		}
		seen := make(map[string]struct{})
		for _, sn := range q.Snippets {
			for _, ref := range ParseSnippet(sn, catalog) {
				if _, dup := seen[ref.Key()]; dup {
					continue
				}
				seen[ref.Key()] = struct{}{}
				iq.apis = append(iq.apis, ref)
			}
		}
		if len(iq.apis) > 0 {
			idx = append(idx, iq)
		}
	}
	return idx
}

func (idx linearIndex) topAPIs(verbPhrase []string, k int) []APIRef {
	if len(verbPhrase) == 0 || k <= 0 {
		return nil
	}
	counts := make(map[string]int)
	byKey := make(map[string]APIRef)
	for _, q := range idx {
		if !titleContains(q.titleWords, verbPhrase) {
			continue
		}
		for _, ref := range q.apis {
			counts[ref.Key()]++
			byKey[ref.Key()] = ref
		}
	}
	if len(counts) == 0 {
		return nil
	}
	keys := make([]string, 0, len(counts))
	for key := range counts {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if counts[keys[i]] != counts[keys[j]] {
			return counts[keys[i]] > counts[keys[j]]
		}
		return keys[i] < keys[j]
	})
	if k > len(keys) {
		k = len(keys)
	}
	out := make([]APIRef, k)
	for i := 0; i < k; i++ {
		out[i] = byKey[keys[i]]
	}
	return out
}

// titleContains reports whether every content word of the phrase appears in
// the title, exactly or through a shared stem.
func titleContains(title map[string]struct{}, phrase []string) bool {
	for _, w := range phrase {
		if textproc.IsStopword(w) {
			continue
		}
		if _, ok := title[w]; ok {
			continue
		}
		matched := false
		for tw := range title {
			if sameStem(tw, w) {
				matched = true
				break
			}
		}
		if !matched {
			return false
		}
	}
	return true
}

func sameStem(a, b string) bool {
	return stem(a) == stem(b)
}

// corpusIndexes builds the production index and the linear oracle over the
// generated corpus once per test process.
var corpusIndexes = sync.OnceValues(func() (*Index, linearIndex) {
	catalog := sdk.NewCatalog()
	corpus := GenerateCorpus(catalog)
	return NewIndex(catalog, corpus), newLinearIndex(catalog, corpus)
})

type topAPIsCase struct {
	phrase []string
	k      int
}

// randomCases draws phrases of 0–4 words from the corpus title words, their
// -s/-es/-ed/-ing forms, stopwords, unknown words and the empty string
// (duplicates arise naturally), with k from 0 to 8.
func randomCases(seed int64, n int) []topAPIsCase {
	catalog := sdk.NewCatalog()
	titleWords := make(map[string]struct{})
	for _, q := range GenerateCorpus(catalog) {
		for _, w := range textproc.Words(q.Title) {
			titleWords[w] = struct{}{}
		}
	}
	var vocab []string
	for w := range titleWords {
		vocab = append(vocab, w)
	}
	sort.Strings(vocab) // map order must not leak into the seeded draw
	stopwords := textproc.StopwordList()
	unknown := []string{"", "zzz", "qqq", "frobnicate", "s", "es", "ing", "xyzzies"}
	r := rand.New(rand.NewSource(seed))
	word := func() string {
		switch p := r.Intn(20); {
		case p < 10:
			return vocab[r.Intn(len(vocab))]
		case p < 14:
			suffix := []string{"s", "es", "ed", "ing"}[r.Intn(4)]
			return vocab[r.Intn(len(vocab))] + suffix
		case p < 18:
			return stopwords[r.Intn(len(stopwords))]
		default:
			return unknown[r.Intn(len(unknown))]
		}
	}
	cases := make([]topAPIsCase, n)
	for i := range cases {
		var phrase []string
		if r.Intn(8) == 0 { // stopword-only phrases match every question
			for j := r.Intn(3); j >= 0; j-- {
				phrase = append(phrase, stopwords[r.Intn(len(stopwords))])
			}
		} else {
			for j := r.Intn(5); j > 0; j-- {
				phrase = append(phrase, word())
			}
		}
		if len(phrase) > 0 && r.Intn(6) == 0 {
			phrase = append(phrase, phrase[r.Intn(len(phrase))])
		}
		cases[i] = topAPIsCase{phrase: phrase, k: r.Intn(9)}
	}
	return cases
}

func TestTopAPIsMatchesLinear(t *testing.T) {
	idx, oracle := corpusIndexes()
	if idx.Len() != len(oracle) {
		t.Fatalf("Len = %d, linear scan indexes %d questions", idx.Len(), len(oracle))
	}
	cases := []topAPIsCase{
		{nil, 5},
		{[]string{}, 5},
		{[]string{"download", "file"}, 0},
		{[]string{"download", "file"}, -1},
		{[]string{"download", "file"}, 5},
		{[]string{"downloading", "files"}, 5},
		{[]string{"download", "download", "file"}, 5},
		{[]string{"404", "error"}, 5},
		{[]string{"save", "photos"}, 8},
		{[]string{"the"}, 8},
		{[]string{"how", "to", "in"}, 3},
		{[]string{"zzz", "qqq"}, 5},
		{[]string{""}, 5},
		{[]string{"download", ""}, 5},
	}
	cases = append(cases, randomCases(1, 20000)...)
	want := make([][]APIRef, len(cases))
	nonEmpty := 0
	for i, c := range cases {
		want[i] = oracle.topAPIs(c.phrase, c.k)
		if len(want[i]) > 0 {
			nonEmpty++
		}
		if got := idx.TopAPIs(c.phrase, c.k); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("TopAPIs(%q, %d) = %#v, linear scan gives %#v", c.phrase, c.k, got, want[i])
		}
	}
	t.Logf("%d of %d cases return APIs", nonEmpty, len(cases))
	// Guard against a vacuous comparison: a useful share of the random
	// phrases must reach the counting and ranking code.
	if nonEmpty < len(cases)/10 {
		t.Fatalf("only %d of %d cases return APIs", nonEmpty, len(cases))
	}

	t.Run("concurrent", func(t *testing.T) {
		var wg sync.WaitGroup
		errs := make(chan string, 4)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for j := range cases {
					i := (j + g*len(cases)/4) % len(cases)
					c := cases[i]
					if got := idx.TopAPIs(c.phrase, c.k); !reflect.DeepEqual(got, want[i]) {
						errs <- fmt.Sprintf("goroutine %d: TopAPIs(%q, %d) = %v, want %v", g, c.phrase, c.k, got, want[i])
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	})

	// The generated titles never repeat a stem; real ones do. A title
	// listed twice on one posting list would count its APIs twice and,
	// here, flip the makeText/connect order.
	t.Run("repeated stems", func(t *testing.T) {
		catalog := sdk.NewCatalog()
		toast := "Toast.makeText(ctx, msg, 0);"
		socket := "Socket s = new Socket();\ns.connect(addr);"
		questions := []Question{
			{Title: "Downloading files: download a file", Snippets: []string{toast}},
			{Title: "Download a page", Snippets: []string{socket}},
			{Title: "How to download", Snippets: []string{socket}},
			{Title: "Download without code", Snippets: []string{"int n = 1;"}},
		}
		idx, oracle := NewIndex(catalog, questions), newLinearIndex(catalog, questions)
		for _, phrase := range [][]string{{"download"}, {"downloads"}, {"file"}, {"download", "files"}, {"how", "to"}, {"page", "file"}} {
			for k := 0; k <= 3; k++ {
				want := oracle.topAPIs(phrase, k)
				if got := idx.TopAPIs(phrase, k); !reflect.DeepEqual(got, want) {
					t.Errorf("TopAPIs(%q, %d) = %v, linear scan gives %v", phrase, k, got, want)
				}
			}
		}
	})
}

// FuzzTopAPIs feeds arbitrary text through the tokenizer reviews take and
// requires the posting index to answer exactly as the linear scan does.
func FuzzTopAPIs(f *testing.F) {
	f.Add("download file", int8(5))
	f.Add("Downloading FILES in Android", int8(3))
	f.Add("404 error", int8(5))
	f.Add("the of a", int8(8))
	f.Add("send sms message", int8(1))
	f.Add("", int8(5))
	f.Add("zzz qqq", int8(0))
	f.Add("save save photos", int8(-1))
	f.Fuzz(func(t *testing.T, text string, k int8) {
		idx, oracle := corpusIndexes()
		phrase := textproc.Words(text)
		got, want := idx.TopAPIs(phrase, int(k)), oracle.topAPIs(phrase, int(k))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("TopAPIs(%q, %d) = %#v, linear scan gives %#v", phrase, k, got, want)
		}
	})
}
