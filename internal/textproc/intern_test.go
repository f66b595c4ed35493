package textproc

import (
	"strings"
	"testing"
)

func testInterner() *Interner {
	return NewInterner(
		InternVocab{Words: []string{"the", "a", "not"}, Flags: SymStopword},
		InternVocab{Words: []string{"send", "message", "the"}, Flags: SymDictionary},
	)
}

func TestInternerIDsAndFlags(t *testing.T) {
	in := testInterner()
	if got := in.Size(); got != 5 {
		t.Fatalf("Size() = %d, want 5 (union of vocabularies)", got)
	}
	// Dense first-seen IDs.
	for i, w := range []string{"the", "a", "not", "send", "message"} {
		id, ok := in.ID(w)
		if !ok || id != uint32(i) {
			t.Errorf("ID(%q) = %d,%v, want %d,true", w, id, ok, i)
		}
		if in.Word(id) != w {
			t.Errorf("Word(%d) = %q, want %q", id, in.Word(id), w)
		}
	}
	if _, ok := in.ID("unknown"); ok {
		t.Error("ID of uninterned word reported ok")
	}
	// Duplicate words OR their flags.
	id, _ := in.ID("the")
	if f := in.Flags(id); f != SymStopword|SymDictionary {
		t.Errorf("Flags(the) = %b, want stopword|dictionary", f)
	}
	id, _ = in.ID("send")
	if f := in.Flags(id); f != SymDictionary {
		t.Errorf("Flags(send) = %b, want dictionary only", f)
	}
}

func TestInternerAnnotate(t *testing.T) {
	in := testInterner()
	toks := Tokenize("send the zorp!")
	in.Annotate(toks)
	wantIDs := make(map[string]uint32)
	for _, w := range []string{"send", "the"} {
		id, _ := in.ID(w)
		wantIDs[w] = id + 1
	}
	for _, tok := range toks {
		switch tok.Lower {
		case "send", "the":
			if tok.ID != wantIDs[tok.Lower] {
				t.Errorf("token %q ID = %d, want %d", tok.Lower, tok.ID, wantIDs[tok.Lower])
			}
		case "zorp":
			if tok.ID != 0 {
				t.Errorf("unknown word got ID %d, want 0", tok.ID)
			}
		case "!":
			if tok.ID != 0 {
				t.Errorf("punct token got ID %d, want 0", tok.ID)
			}
		}
	}
}

func TestInternerIsStop(t *testing.T) {
	in := testInterner()
	toks := Tokenize("the message")
	in.Annotate(toks)
	if !in.IsStop(toks[0]) {
		t.Error("annotated stopword not reported as stop")
	}
	if in.IsStop(toks[1]) {
		t.Error("annotated non-stopword reported as stop")
	}
	// Unannotated tokens fall back to the global stopword table.
	plain := Tokenize("the")
	if !in.IsStop(plain[0]) {
		t.Error("unannotated stopword fallback failed")
	}
}

func TestDefaultVocabAccessors(t *testing.T) {
	for name, words := range map[string][]string{
		"DictionaryList":   DictionaryList(),
		"StopwordList":     StopwordList(),
		"AbbreviationList": AbbreviationList(),
	} {
		if len(words) == 0 {
			t.Errorf("%s is empty", name)
		}
		for i := 1; i < len(words); i++ {
			if strings.Compare(words[i-1], words[i]) >= 0 {
				t.Errorf("%s not strictly sorted at %d: %q >= %q", name, i, words[i-1], words[i])
				break
			}
		}
	}
}

func TestInternerExportRoundTrip(t *testing.T) {
	orig := NewInterner(
		InternVocab{Words: []string{"email", "crash", "the"}, Flags: SymDictionary},
		InternVocab{Words: []string{"the", "a"}, Flags: SymStopword},
	)
	words, flags := orig.Export()
	if len(words) != orig.Size() || len(flags) != orig.Size() {
		t.Fatalf("Export shapes %d/%d for size %d", len(words), len(flags), orig.Size())
	}
	re := NewInternerFromTable(words, flags)
	if re.Size() != orig.Size() {
		t.Fatalf("rebuilt size %d, want %d", re.Size(), orig.Size())
	}
	for _, w := range []string{"email", "crash", "the", "a", "missing"} {
		oid, ook := orig.ID(w)
		rid, rok := re.ID(w)
		if oid != rid || ook != rok {
			t.Fatalf("ID(%q): rebuilt %d/%v, orig %d/%v", w, rid, rok, oid, ook)
		}
		if !ook {
			continue
		}
		if re.Word(rid) != orig.Word(oid) || re.Flags(rid) != orig.Flags(oid) {
			t.Fatalf("word/flags mismatch for %q", w)
		}
	}
	// "the" must carry both membership flags after the rebuild.
	id, _ := re.ID("the")
	if re.Flags(id)&SymStopword == 0 || re.Flags(id)&SymDictionary == 0 {
		t.Fatal("merged flags lost in round trip")
	}
}

// Word returns the word behind an ID (panics on out-of-range IDs, like a
// slice index).
func (in *Interner) Word(id uint32) string { return in.words[id] }

// Flags returns the vocabulary-membership flags of an ID.
func (in *Interner) Flags(id uint32) uint16 { return in.flags[id] }

// NewInternerFromTable rebuilds an interner from an Export-style table,
// preserving IDs (words[i] gets ID i). It is the deserialization twin of
// Export: NewInternerFromTable(in.Export()) is equivalent to in.
func NewInternerFromTable(words []string, flags []uint16) *Interner {
	in := &Interner{
		ids:   make(map[string]uint32, len(words)),
		words: words,
		flags: flags,
	}
	for i, w := range words {
		in.ids[w] = uint32(i)
	}
	return in
}

// IsStop reports whether a token annotated by this interner is a stopword,
// without hashing its text. Unannotated tokens fall back to the map test.
func (in *Interner) IsStop(t Token) bool {
	if t.ID != 0 {
		return in.flags[t.ID-1]&SymStopword != 0
	}
	return IsStopword(t.Lower)
}
