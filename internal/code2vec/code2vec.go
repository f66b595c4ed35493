// Package code2vec implements the method-summarization model of §3.3.2:
// given a method body, predict the words of its (possibly obfuscated or
// meaningless) name. The original uses the Code2vec neural model trained on
// 1,300 F-Droid apps; this reproduction uses the same representation —
// path contexts extracted from the method's AST — with a multinomial
// association model instead of a neural network: training counts how often
// each path context co-occurs with each name word, and prediction scores
// name words by their smoothed log-likelihood over the body's contexts.
//
// The decision downstream (§4.1.1) only consumes the predicted word list,
// so the substitution preserves behaviour: methods whose bodies call
// SmsManager.sendTextMessage predict "send"/"message" even when ProGuard
// renamed them to "a".
package code2vec

import (
	"math"
	"sort"
	"strings"

	"reviewsolver/internal/apk"
	"reviewsolver/internal/textproc"
)

// PathContext is a (source token, path, target token) triple over the
// method's statement AST, the representation Code2vec learns from.
type PathContext struct {
	Source string
	Path   string
	Target string
}

// Key serializes the context for counting.
func (p PathContext) Key() string { return p.Source + "\x00" + p.Path + "\x00" + p.Target }

// ExtractContexts lists the path contexts of one method body: pairwise
// combinations of nearby statement tokens joined by the opcode path between
// them, plus unary op→token contexts.
func ExtractContexts(m *apk.Method) []PathContext {
	type tokenAt struct {
		token string
		op    apk.Op
		idx   int
	}
	var toks []tokenAt
	for i, st := range m.Statements {
		for _, t := range statementTokens(st) {
			toks = append(toks, tokenAt{token: t, op: st.Op, idx: i})
		}
	}
	var out []PathContext
	for i, a := range toks {
		// Unary context: the opcode "path" to its own token.
		out = append(out, PathContext{Source: a.op.String(), Path: "self", Target: a.token})
		// Pairwise contexts within a window of 3 statements.
		for j := i + 1; j < len(toks) && toks[j].idx-a.idx <= 3; j++ {
			b := toks[j]
			path := a.op.String() + ">" + b.op.String()
			out = append(out, PathContext{Source: a.token, Path: path, Target: b.token})
		}
	}
	return out
}

// statementTokens lists the identifier words a statement contributes.
func statementTokens(st apk.Statement) []string {
	var out []string
	switch st.Op {
	case apk.OpInvoke:
		out = append(out, shortNameWords(st.InvokeClass)...)
		out = append(out, textproc.SplitIdentifier(st.InvokeMethod)...)
	case apk.OpNew:
		out = append(out, shortNameWords(st.InvokeClass)...)
	case apk.OpConstString:
		words := textproc.Words(st.Const)
		if len(words) > 4 {
			words = words[:4]
		}
		out = append(out, words...)
	case apk.OpThrow, apk.OpCatch:
		out = append(out, textproc.SplitIdentifier(st.Exception)...)
	}
	return out
}

func shortNameWords(class string) []string {
	if i := strings.LastIndexByte(class, '.'); i >= 0 {
		class = class[i+1:]
	}
	class = strings.ReplaceAll(class, "$", " ")
	return textproc.SplitIdentifier(class)
}

// Model is the trained association model.
type Model struct {
	// contextWord counts context-key → word occurrences.
	contextWord map[string]map[string]float64
	// contextTotal is Σ_word contextWord[ctx][word].
	contextTotal map[string]float64
	// wordPrior counts global word frequency.
	wordPrior map[string]float64
	total     float64
	vocab     []string
}

// NewModel returns an untrained model.
func NewModel() *Model {
	return &Model{
		contextWord:  make(map[string]map[string]float64),
		contextTotal: make(map[string]float64),
		wordPrior:    make(map[string]float64),
	}
}

// TrainMethod adds one labeled method (name + body) to the model. The
// label words are the split method name; lifecycle prefixes ("on") are
// dropped, as the paper does for lifecycle methods.
func (m *Model) TrainMethod(method *apk.Method) {
	words := nameWords(method.Name)
	if len(words) == 0 {
		return
	}
	contexts := ExtractContexts(method)
	for _, ctx := range contexts {
		key := ctx.Key()
		cw, ok := m.contextWord[key]
		if !ok {
			cw = make(map[string]float64, len(words))
			m.contextWord[key] = cw
		}
		for _, w := range words {
			cw[w]++
			m.contextTotal[key]++
		}
	}
	for _, w := range words {
		if m.wordPrior[w] == 0 {
			m.vocab = append(m.vocab, w)
		}
		m.wordPrior[w]++
		m.total++
	}
}

// TrainRelease trains on every method of a release whose name is
// meaningful (longer than one character — obfuscated names are skipped).
func (m *Model) TrainRelease(r *apk.Release) {
	for _, c := range r.Classes {
		for _, meth := range c.Methods {
			if len(meth.Name) <= 1 {
				continue
			}
			m.TrainMethod(meth)
		}
	}
}

// VocabSize returns the number of distinct name words learned.
func (m *Model) VocabSize() int { return len(m.vocab) }

// Predict returns the top-k name words for a method body, most likely
// first. It is the code-summarization output used by the app-specific-task
// localizer (§4.1.1).
func (m *Model) Predict(method *apk.Method, k int) []string {
	if m.total == 0 || k <= 0 {
		return nil
	}
	contexts := ExtractContexts(method)
	if len(contexts) == 0 {
		return nil
	}
	vocabSize := float64(len(m.vocab)) + 1
	type scored struct {
		word  string
		score float64
	}
	scores := make([]scored, 0, len(m.vocab))
	for _, w := range m.vocab {
		// log P(w) + Σ_ctx log P(ctx | w) via the association counts.
		s := math.Log(m.wordPrior[w] / m.total)
		for _, ctx := range contexts {
			key := ctx.Key()
			cw := m.contextWord[key][w]
			tot := m.contextTotal[key]
			s += math.Log((cw + 0.1) / (tot + 0.1*vocabSize))
		}
		scores = append(scores, scored{word: w, score: s})
	}
	sort.Slice(scores, func(i, j int) bool {
		if scores[i].score != scores[j].score {
			return scores[i].score > scores[j].score
		}
		return scores[i].word < scores[j].word
	})
	if k > len(scores) {
		k = len(scores)
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = scores[i].word
	}
	return out
}

// nameWords splits a method name into its label words, dropping stopword
// prefixes like "on" (lifecycle methods).
func nameWords(name string) []string {
	words := textproc.SplitIdentifier(name)
	out := words[:0]
	for _, w := range words {
		if w == "on" || len(w) <= 1 {
			continue
		}
		out = append(out, w)
	}
	return out
}
