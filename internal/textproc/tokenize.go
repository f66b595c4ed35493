// Package textproc provides the low-level text processing primitives used by
// ReviewSolver's review-analysis pipeline (§3.2.1 of the paper): tokenization,
// sentence splitting, non-ASCII stripping, Levenshtein-based spell repair,
// abbreviation expansion, stopword filtering, and identifier (camelCase /
// snake_case) splitting.
//
// All functions in this package are deterministic and allocation-conscious;
// none of them retain references to their inputs.
package textproc

import (
	"strings"
	"sync"
	"unicode"
)

// Token is a single lexical unit of a sentence.
type Token struct {
	// Text is the surface form exactly as it appeared (after ASCII
	// normalization), preserving the original case.
	Text string
	// Lower is the lower-cased form, precomputed because nearly every
	// consumer needs it.
	Lower string
	// Start is the byte offset of the token in the source sentence.
	Start int
	// Kind classifies the token.
	Kind TokenKind
	// ID is the token's interner handle when an Interner annotated it:
	// dense ID + 1, with 0 meaning unknown or not annotated.
	ID uint32
}

// TokenKind classifies tokens by their lexical shape.
type TokenKind int

// Token kinds. Word covers alphabetic tokens (possibly with internal
// apostrophes, e.g. "doesn't"), Number covers digit runs and mixed
// alphanumerics such as "404" or "7.0", Punct covers punctuation runs, and
// Emoji covers characters outside ASCII that survived normalization.
const (
	Word TokenKind = iota + 1
	Number
	Punct
	Emoji
)

// StripNonASCII removes every byte outside the printable ASCII range,
// replacing runs of removed characters with a single space so that words
// separated only by emoji do not fuse together. The paper removes non-ASCII
// characters before any other processing (§3.2.1). Input that is already
// clean — printable ASCII, single interior spaces, no leading/trailing
// space — is returned as-is without copying.
func StripNonASCII(s string) string {
	if asciiClean(s) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	lastWasSpace := false
	for _, r := range s {
		switch {
		case r == '\n' || r == '\t':
			if !lastWasSpace {
				b.WriteByte(' ')
				lastWasSpace = true
			}
		case r == ' ':
			if !lastWasSpace {
				b.WriteByte(' ')
				lastWasSpace = true
			}
		case r > 0x20 && r < 0x7f:
			b.WriteRune(r)
			lastWasSpace = false
		default:
			if !lastWasSpace {
				b.WriteByte(' ')
				lastWasSpace = true
			}
		}
	}
	return strings.TrimSpace(b.String())
}

// asciiClean reports whether StripNonASCII would return s unchanged: every
// byte printable ASCII, spaces single and interior only.
func asciiClean(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ' ' {
			if i == 0 || i == len(s)-1 || s[i-1] == ' ' {
				return false
			}
			continue
		}
		if c <= 0x20 || c >= 0x7f {
			return false
		}
	}
	return true
}

// Tokenize splits a sentence into tokens. Contractions keep their apostrophe
// ("doesn't" stays one token) because the POS tagger and negation detector
// handle them as units. Quoted error messages keep their quotes as separate
// Punct tokens so the error-message localizer can recover the quoted span.
func Tokenize(sentence string) []Token {
	return TokenizeInto(make([]Token, 0, len(sentence)/4+4), sentence)
}

// TokenizeInto is Tokenize appending into a caller-owned scratch slice
// (dst[:0] reuse), so steady-state tokenization performs no allocations
// once the scratch has grown to the corpus's longest sentence.
func TokenizeInto(toks []Token, sentence string) []Token {
	i := 0
	n := len(sentence)
	for i < n {
		c := sentence[i]
		switch {
		case c == ' ':
			i++
		case isLetter(c):
			start := i
			// Mixed alphanumerics stay one token ("mp3", "k9", "mi4c").
			for i < n && (isLetter(sentence[i]) || isDigit(sentence[i]) ||
				isApostropheInWord(sentence, i)) {
				i++
			}
			toks = append(toks, newToken(sentence[start:i], start, Word))
		case isDigit(c):
			start := i
			for i < n && (isDigit(sentence[i]) || sentence[i] == '.' && i+1 < n && isDigit(sentence[i+1])) {
				i++
			}
			// "7.0android" style: absorb letters into a Number-kind token.
			for i < n && isLetter(sentence[i]) {
				i++
			}
			toks = append(toks, newToken(sentence[start:i], start, Number))
		default:
			start := i
			i++
			// Group repeated identical punctuation ("!!!" -> one token).
			for i < n && sentence[i] == c && isPunctByte(c) {
				i++
			}
			toks = append(toks, newToken(sentence[start:i], start, Punct))
		}
	}
	return toks
}

func newToken(text string, start int, kind TokenKind) Token {
	return Token{Text: text, Lower: lowerASCII(text), Start: start, Kind: kind}
}

// lowerASCII lower-cases a token. Tokens are pure ASCII here (StripNonASCII
// runs first), and review text is overwhelmingly lowercase already, so the
// scan-then-return fast path makes Lower a zero-copy alias of Text for the
// common case.
func lowerASCII(s string) string {
	i := 0
	for ; i < len(s); i++ {
		if c := s[i]; c >= 'A' && c <= 'Z' {
			break
		}
	}
	if i == len(s) {
		return s
	}
	b := make([]byte, len(s))
	copy(b, s[:i])
	for ; i < len(s); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		b[i] = c
	}
	return string(b)
}

func isLetter(c byte) bool { return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }
func isDigit(c byte) bool  { return c >= '0' && c <= '9' }

func isPunctByte(c byte) bool {
	return strings.IndexByte("!?.,;:-", c) >= 0
}

// isApostropheInWord reports whether position i is an apostrophe flanked by
// letters (so "doesn't" is one token but a closing quote is not).
func isApostropheInWord(s string, i int) bool {
	if s[i] != '\'' {
		return false
	}
	return i > 0 && isLetter(s[i-1]) && i+1 < len(s) && isLetter(s[i+1])
}

// tokenScratch recycles token buffers for the helpers that tokenize
// internally and only return derived data (Words, NormalizeSentence).
var tokenScratch = sync.Pool{
	New: func() any { s := make([]Token, 0, 64); return &s },
}

// Words returns the lower-cased word tokens of a sentence, dropping
// punctuation. It is the common shortcut for bag-of-words consumers.
func Words(sentence string) []string {
	sp := tokenScratch.Get().(*[]Token)
	toks := TokenizeInto((*sp)[:0], sentence)
	out := make([]string, 0, len(toks))
	for _, t := range toks {
		if t.Kind == Word || t.Kind == Number {
			out = append(out, t.Lower)
		}
	}
	*sp = toks[:0]
	tokenScratch.Put(sp)
	return out
}

// SplitSentences splits review text into sentences. It mirrors what the
// paper does with NLTK: split on sentence-final punctuation, but do not split
// inside quoted error messages (reviews often embed messages like
// `it says "c:geo can't load data required to log visit"`), nor after common
// abbreviations, nor on ellipses inside a clause.
func SplitSentences(text string) []string {
	text = StripNonASCII(text)
	if text == "" {
		return nil
	}
	var (
		out     []string
		start   int
		inQuote bool
	)
	n := len(text)
	for i := 0; i < n; i++ {
		c := text[i]
		if c == '"' {
			inQuote = !inQuote
			continue
		}
		if inQuote {
			continue
		}
		if c != '.' && c != '!' && c != '?' {
			continue
		}
		// Consume the whole punctuation run ("!!!", "...").
		j := i
		for j+1 < n && (text[j+1] == '.' || text[j+1] == '!' || text[j+1] == '?') {
			j++
		}
		if c == '.' && j == i && looksLikeAbbrevDot(text, i) {
			continue
		}
		// A sentence boundary needs a following space + capital/EOF, or EOF.
		if j+1 >= n || boundaryFollows(text, j+1) {
			s := strings.TrimSpace(text[start : j+1])
			if s != "" {
				out = append(out, s)
			}
			start = j + 1
			i = j
		}
	}
	if tail := strings.TrimSpace(text[start:]); tail != "" {
		out = append(out, tail)
	}
	return out
}

// boundaryFollows reports whether position i (just after sentence-final
// punctuation) looks like the start of a new sentence.
func boundaryFollows(text string, i int) bool {
	// Skip spaces.
	for i < len(text) && text[i] == ' ' {
		i++
	}
	if i >= len(text) {
		return true
	}
	r := rune(text[i])
	return unicode.IsUpper(r) || unicode.IsDigit(r) || text[i] == '"' || unicode.IsLower(r)
}

// looksLikeAbbrevDot reports whether the '.' at position i is part of an
// abbreviation or a version number rather than a sentence end.
func looksLikeAbbrevDot(text string, i int) bool {
	// Version numbers: digit.digit
	if i > 0 && isDigit(text[i-1]) && i+1 < len(text) && isDigit(text[i+1]) {
		return true
	}
	// Single-letter abbreviation like "e.g." / "i.e." / initials.
	wordStart := i
	for wordStart > 0 && isLetter(text[wordStart-1]) {
		wordStart--
	}
	w := strings.ToLower(text[wordStart:i])
	switch w {
	case "e", "i", "g", "etc", "vs", "mr", "ms", "dr", "st":
		return true
	}
	return false
}
