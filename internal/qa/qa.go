// Package qa implements the general-task knowledge base of §4.2.2: a Stack
// Overflow-style Q&A corpus (question titles + Java code snippets), a
// javalang-like snippet parser that extracts the framework APIs each
// snippet calls, and the Algorithm 2 index that maps a review verb phrase
// to the top-k framework APIs developers use for that task.
//
// The original downloads 1.27M Android questions from the Stack Exchange
// dump; this reproduction generates a corpus from task templates over the
// same SDK catalog the synthetic apps call, so the title→API frequency
// statistics are meaningful for the tasks reviews complain about.
package qa

import (
	"slices"
	"sort"
	"strings"

	"reviewsolver/internal/sdk"
	"reviewsolver/internal/textproc"
)

// Question is one Q&A thread: a short title and the code snippets found in
// the question body and its answers.
type Question struct {
	// Title summarizes the problem ("How to download a file in Android").
	Title string
	// Snippets holds the raw Java code blocks (<code> contents).
	Snippets []string
}

// APIRef identifies a framework API extracted from a snippet.
type APIRef struct {
	Class  string
	Method string
}

// Key returns "class.method".
func (r APIRef) Key() string { return r.Class + "." + r.Method }

// parseSnippet extracts the framework API calls from a Java-like code
// snippet, the role javalang plays in the paper (§4.2.2 Step 2). It tracks
// `Type var = new Type(...)` and `Type var = ...` declarations to resolve
// receiver variables to classes, and resolves short class names through
// shortToFull, the catalog's short-class map, which NewIndex builds once for
// the whole corpus.
func parseSnippet(snippet string, catalog *sdk.Catalog, shortToFull map[string]string) []APIRef {
	varType := make(map[string]string)
	var out []APIRef
	seen := make(map[string]struct{})
	for _, line := range strings.Split(snippet, "\n") {
		line = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(line), ";"))
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		// Declarations: "Type name = ..." (optionally "new Type(...)").
		if class, name, rest, ok := parseDecl(line); ok {
			if full, known := shortToFull[class]; known {
				varType[name] = full
			}
			line = rest // the initializer may itself contain a call
			if line == "" {
				continue
			}
		}
		// Calls: receiver.method(...) — receiver is a variable or a class.
		for _, call := range parseCalls(line) {
			class := varType[call.recv]
			if class == "" {
				if full, known := shortToFull[call.recv]; known {
					class = full
				}
			}
			if class == "" {
				continue
			}
			if _, known := catalog.LookupAPI(class, call.method); !known {
				continue
			}
			ref := APIRef{Class: class, Method: call.method}
			if _, dup := seen[ref.Key()]; dup {
				continue
			}
			seen[ref.Key()] = struct{}{}
			out = append(out, ref)
		}
	}
	return out
}

func shortClassIndex(catalog *sdk.Catalog) map[string]string {
	idx := make(map[string]string)
	for _, a := range catalog.APIs() {
		short := a.ShortClass()
		idx[short] = a.Class
		// Inner classes are written without the '$' in snippets
		// ("AlertDialogBuilder" for AlertDialog$Builder).
		if strings.ContainsRune(short, '$') {
			idx[strings.ReplaceAll(short, "$", "")] = a.Class
		}
	}
	return idx
}

// parseDecl recognizes "Type name = rest" and returns the parts.
func parseDecl(line string) (class, name, rest string, ok bool) {
	eq := strings.Index(line, "=")
	if eq < 0 {
		return "", "", "", false
	}
	left := strings.Fields(strings.TrimSpace(line[:eq]))
	if len(left) != 2 {
		return "", "", "", false
	}
	class, name = left[0], left[1]
	if !isIdentifier(class) || !isIdentifier(name) || !isUpperStart(class) {
		return "", "", "", false
	}
	rest = strings.TrimSpace(line[eq+1:])
	rest = strings.TrimPrefix(rest, "new ")
	return class, name, rest, true
}

type callExpr struct {
	recv, method string
}

// parseCalls finds "recv.method(" occurrences in a line.
func parseCalls(line string) []callExpr {
	var out []callExpr
	for i := 0; i < len(line); i++ {
		if line[i] != '(' {
			continue
		}
		// Walk back over the method name.
		j := i
		for j > 0 && isIdentChar(line[j-1]) {
			j--
		}
		if j == i || j == 0 || line[j-1] != '.' {
			continue
		}
		method := line[j:i]
		// Walk back over the receiver.
		k := j - 1
		for k > 0 && isIdentChar(line[k-1]) {
			k--
		}
		recv := line[k : j-1]
		if recv == "" {
			continue
		}
		out = append(out, callExpr{recv: recv, method: method})
	}
	return out
}

func isIdentifier(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !isIdentChar(s[i]) {
			return false
		}
	}
	return true
}

func isIdentChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_'
}

func isUpperStart(s string) bool { return s != "" && s[0] >= 'A' && s[0] <= 'Z' }

// Index is the Algorithm 2 lookup structure: an inverted index over the
// questions whose snippets call at least one framework API. Each title-word
// stem maps to the ascending IDs of the questions whose titles hold a word
// with that stem (its posting list), and each question lists its APIs as
// dense IDs into one table sorted by APIRef.Key. The index is read-only
// after NewIndex, so one Index serves concurrent lookups.
type Index struct {
	postings map[string][]int32
	// apis is every extracted API in key order, so ID order is key order.
	apis []APIRef
	// Question q calls the APIs apiIDs[apiStart[q]:apiStart[q+1]].
	apiIDs   []int32
	apiStart []int32
}

// NewIndex parses every question's snippets and builds the index.
func NewIndex(catalog *sdk.Catalog, questions []Question) *Index {
	shortToFull := shortClassIndex(catalog)
	var titles [][]string
	var refs [][]APIRef
	ids := make(map[string]int32) // API key → ID, set once x.apis is sorted
	x := &Index{postings: make(map[string][]int32)}
	for _, q := range questions {
		var qrefs []APIRef
		seen := make(map[string]struct{})
		for _, sn := range q.Snippets {
			for _, ref := range parseSnippet(sn, catalog, shortToFull) {
				if _, dup := seen[ref.Key()]; dup {
					continue
				}
				seen[ref.Key()] = struct{}{}
				qrefs = append(qrefs, ref)
				if _, known := ids[ref.Key()]; !known {
					ids[ref.Key()] = 0
					x.apis = append(x.apis, ref)
				}
			}
		}
		if len(qrefs) > 0 {
			titles = append(titles, textproc.Words(q.Title))
			refs = append(refs, qrefs)
		}
	}
	sort.Slice(x.apis, func(i, j int) bool { return x.apis[i].Key() < x.apis[j].Key() })
	for id, ref := range x.apis {
		ids[ref.Key()] = int32(id)
	}
	x.apiStart = make([]int32, 1, len(refs)+1)
	for q, qrefs := range refs {
		for _, w := range titles[q] {
			s := stem(w)
			if list := x.postings[s]; len(list) == 0 || list[len(list)-1] != int32(q) {
				x.postings[s] = append(list, int32(q))
			}
		}
		for _, ref := range qrefs {
			x.apiIDs = append(x.apiIDs, ids[ref.Key()])
		}
		x.apiStart = append(x.apiStart, int32(len(x.apiIDs)))
	}
	return x
}

// Len returns the number of indexed questions.
func (x *Index) Len() int { return len(x.apiStart) - 1 }

// TopAPIs implements Algorithm 2: find the questions whose titles contain
// the verb phrase's words, count the framework APIs in their snippets, and
// return the k most frequent APIs (the paper sets k = 5), ties in key order.
//
// A title contains the phrase when every non-stopword phrase word shares
// its stem with some title word (§4.2.2: "identify the questions whose
// titles contain the same verb phrase"; shared stems tolerate inflection).
// The matching questions are therefore the intersection of the phrase
// stems' posting lists, and a phrase of stopwords alone matches them all.
func (x *Index) TopAPIs(verbPhrase []string, k int) []APIRef {
	if len(verbPhrase) == 0 || k <= 0 {
		return nil
	}
	var buf [8][]int32
	lists := buf[:0]
	for _, w := range verbPhrase {
		if textproc.IsStopword(w) {
			continue
		}
		list, ok := x.postings[stem(w)]
		if !ok {
			return nil
		}
		lists = append(lists, list)
	}
	counts := make([]int32, len(x.apis))
	var touched []int32 // API IDs with a non-zero count
	countAPIs := func(q int32) {
		for _, id := range x.apiIDs[x.apiStart[q]:x.apiStart[q+1]] {
			if counts[id] == 0 {
				touched = append(touched, id)
			}
			counts[id]++
		}
	}
	if len(lists) == 0 {
		for q := range int32(x.Len()) {
			countAPIs(q)
		}
	} else {
		for _, q := range intersect(lists) {
			countAPIs(q)
		}
	}
	if len(touched) == 0 {
		return nil
	}
	slices.SortFunc(touched, func(a, b int32) int {
		if counts[a] != counts[b] {
			return int(counts[b] - counts[a])
		}
		return int(a - b)
	})
	out := make([]APIRef, min(k, len(touched)))
	for i := range out {
		out[i] = x.apis[touched[i]]
	}
	return out
}

// intersect returns the IDs present in every ascending list, ascending. It
// walks the shortest list and binary-searches the others, each from where
// its previous probe stopped. It reorders lists but not their contents.
func intersect(lists [][]int32) []int32 {
	slices.SortFunc(lists, func(a, b []int32) int { return len(a) - len(b) })
	if len(lists) == 1 {
		return lists[0]
	}
	out := make([]int32, 0, len(lists[0]))
next:
	for _, q := range lists[0] {
		for i := 1; i < len(lists); i++ {
			j, found := slices.BinarySearch(lists[i], q)
			lists[i] = lists[i][j:]
			if !found {
				if len(lists[i]) == 0 {
					break next
				}
				continue next
			}
		}
		out = append(out, q)
	}
	return out
}

// stem strips one inflectional suffix (-ing, -ed, -es, -s) and a doubled
// final consonant, so "downloading", "downloaded" and "downloads" share
// "download"'s stem.
func stem(w string) string {
	switch {
	case strings.HasSuffix(w, "ing") && len(w) > 5:
		w = w[:len(w)-3]
	case strings.HasSuffix(w, "ed") && len(w) > 4:
		w = w[:len(w)-2]
	case strings.HasSuffix(w, "es") && len(w) > 4:
		w = w[:len(w)-2]
	case strings.HasSuffix(w, "s") && len(w) > 3 && !strings.HasSuffix(w, "ss"):
		w = w[:len(w)-1]
	}
	if len(w) > 3 && w[len(w)-1] == w[len(w)-2] && !strings.ContainsRune("aeiou", rune(w[len(w)-1])) {
		w = w[:len(w)-1]
	}
	return w
}
