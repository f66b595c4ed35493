package textproc

// Interner is an immutable string → ID symbol table over the pipeline's
// closed vocabulary (spell-repair dictionary, POS lexicon, stopwords,
// abbreviations, embedding lexicon). Token IDs let downstream stages index
// flat arrays instead of hashing strings.
//
// An Interner is built once (NewInterner) and read-only afterwards, so it is
// safe for unsynchronized concurrent use.
type Interner struct {
	ids   map[string]uint32
	words []string
	flags []uint16
}

// Vocabulary membership flags, one bit per source table.
const (
	SymStopword uint16 = 1 << iota
	SymDictionary
	SymAbbreviation
	SymPOSLexicon
	SymEmbedding
)

// InternVocab is one vocabulary source fed to NewInterner: its words and the
// membership flag they carry.
type InternVocab struct {
	Words []string
	Flags uint16
}

// NewInterner builds the symbol table from the union of the given
// vocabularies. Words appearing in several sources get one ID with the OR of
// their flags. IDs are dense, assigned in first-seen order.
func NewInterner(vocabs ...InternVocab) *Interner {
	total := 0
	for _, v := range vocabs {
		total += len(v.Words)
	}
	in := &Interner{
		ids:   make(map[string]uint32, total),
		words: make([]string, 0, total),
		flags: make([]uint16, 0, total),
	}
	for _, v := range vocabs {
		for _, w := range v.Words {
			if id, ok := in.ids[w]; ok {
				in.flags[id] |= v.Flags
				continue
			}
			id := uint32(len(in.words))
			in.ids[w] = id
			in.words = append(in.words, w)
			in.flags = append(in.flags, v.Flags)
		}
	}
	return in
}

// Size returns the number of interned words.
func (in *Interner) Size() int { return len(in.words) }

// ID returns the dense ID of a word and whether it is interned.
func (in *Interner) ID(word string) (uint32, bool) {
	id, ok := in.ids[word]
	return id, ok
}

// Annotate stamps every Word/Number token with its interner handle:
// Token.ID is the dense ID plus one, so zero keeps meaning "unknown or not
// annotated". One map probe here replaces the per-stage string hashing
// downstream (lexicon tag, stopword test, dictionary test).
func (in *Interner) Annotate(toks []Token) {
	for i := range toks {
		if toks[i].Kind != Word && toks[i].Kind != Number {
			continue
		}
		if id, ok := in.ids[toks[i].Lower]; ok {
			toks[i].ID = id + 1
		} else {
			toks[i].ID = 0
		}
	}
}

// Export returns the symbol table in ID order: the interned words and their
// flags, parallel slices suitable for serialization. The slices alias the
// interner's internals; callers must not mutate them.
func (in *Interner) Export() (words []string, flags []uint16) {
	return in.words, in.flags
}
