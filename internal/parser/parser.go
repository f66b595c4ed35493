// Package parser implements a shallow constituency parser and typed
// dependency extractor for app-review sentences, standing in for the
// Stanford Parser used by the paper (§3.2.1). It produces:
//
//   - a parse tree whose internal nodes are S/NP/VP/PP/ADVP chunks and whose
//     leaves are POS-tagged tokens (Fig. 2, left), and
//   - typed dependency relations between words (Fig. 2, right): nsubj,
//     nsubjpass, dobj, pobj, prep, neg, amod, det, advmod, aux, cc, conj.
//
// The chunker is a deterministic longest-match finite-state machine over POS
// tags; the dependency pass reads head words out of the chunks. The subset
// of relations is exactly what ReviewSolver's phrase extraction (§3.2.4) and
// negation-aware classification (§3.2.2) consume.
package parser

import (
	"fmt"
	"strings"

	"reviewsolver/internal/pos"
	"reviewsolver/internal/textproc"
)

// Label names a parse-tree node.
type Label string

// Chunk labels.
const (
	LabelS    Label = "S"    // sentence root
	LabelNP   Label = "NP"   // noun phrase
	LabelVP   Label = "VP"   // verb phrase
	LabelPP   Label = "PP"   // prepositional phrase
	LabelADVP Label = "ADVP" // adverbial phrase
	LabelCC   Label = "CC"   // coordination
	LabelO    Label = "O"    // other (punctuation, interjections)
)

// Node is a parse-tree node. Leaves carry a token; internal nodes carry
// children.
type Node struct {
	Label    Label
	Children []*Node
	// Token is set on leaves only.
	Token *pos.TaggedToken
	// TokenIndex is the sentence position of a leaf token, -1 for internal
	// nodes.
	TokenIndex int
}

// IsLeaf reports whether the node is a token leaf.
func (n *Node) IsLeaf() bool { return n.Token != nil }

// Leaves returns the leaf nodes under n in sentence order.
func (n *Node) Leaves() []*Node {
	if n.IsLeaf() {
		return []*Node{n}
	}
	return n.appendLeaves(make([]*Node, 0, 8))
}

// appendLeaves accumulates leaves into one caller-owned slice so the
// recursion does not allocate an intermediate slice per internal node.
func (n *Node) appendLeaves(out []*Node) []*Node {
	if n.IsLeaf() {
		return append(out, n)
	}
	for _, c := range n.Children {
		out = c.appendLeaves(out)
	}
	return out
}

// PhrasesLabeled returns the internal nodes under n (including n) with the
// given label, in sentence order. Phrase extraction uses it to list NPs:
// "for each line of the parse tree, if the line starts with NP ..." (§3.2.4).
func (n *Node) PhrasesLabeled(label Label) []*Node {
	var out []*Node
	var walk func(*Node)
	walk = func(m *Node) {
		if m.IsLeaf() {
			return
		}
		if m.Label == label {
			out = append(out, m)
		}
		for _, c := range m.Children {
			walk(c)
		}
	}
	walk(n)
	return out
}

// String renders the tree in the one-phrase-per-line style of Fig. 2.
func (n *Node) String() string {
	var b strings.Builder
	n.render(&b, 0)
	return b.String()
}

func (n *Node) render(b *strings.Builder, depth int) {
	indent := strings.Repeat("  ", depth)
	if n.IsLeaf() {
		fmt.Fprintf(b, "%s(%s %s)\n", indent, n.Token.Tag, n.Token.Text)
		return
	}
	fmt.Fprintf(b, "%s(%s\n", indent, n.Label)
	for _, c := range n.Children {
		c.render(b, depth+1)
	}
	fmt.Fprintf(b, "%s)\n", indent)
}

// Dependency is a typed grammatical relation between two tokens, identified
// by their sentence positions.
type Dependency struct {
	// Rel is the relation name (e.g. "dobj", "neg").
	Rel string
	// Head is the index of the governing token.
	Head int
	// Dep is the index of the dependent token.
	Dep int
}

// Relation names produced by the dependency pass.
const (
	RelNSubj     = "nsubj"
	RelNSubjPass = "nsubjpass"
	RelDObj      = "dobj"
	RelPObj      = "pobj"
	RelPrep      = "prep"
	RelNeg       = "neg"
	RelAMod      = "amod"
	RelDet       = "det"
	RelAdvMod    = "advmod"
	RelAux       = "aux"
	RelCC        = "cc"
	RelConj      = "conj"
	RelCompound  = "compound"
)

// Parse is the result of parsing one sentence.
type Parse struct {
	// Tokens are the POS-tagged tokens of the sentence.
	Tokens []pos.TaggedToken
	// Tree is the chunked parse tree rooted at S.
	Tree *Node
	// Deps are the typed dependencies.
	Deps []Dependency
}

// DepsWithRel returns the dependencies with the given relation.
func (p *Parse) DepsWithRel(rel string) []Dependency {
	var out []Dependency
	for _, d := range p.Deps {
		if d.Rel == rel {
			out = append(out, d)
		}
	}
	return out
}

// Parser parses tagged sentences.
type Parser struct {
	tagger *pos.Tagger
}

// New returns a Parser using a fresh tagger extended with the given proper
// nouns.
func New(properNouns ...string) *Parser {
	return &Parser{tagger: pos.NewTagger(properNouns...)}
}

// UseInterner forwards an interner to the tagger so parsed tokens carry
// dense vocabulary IDs.
func (p *Parser) UseInterner(in *textproc.Interner) { p.tagger.UseInterner(in) }

// ParseSentence tags and parses a sentence.
func (p *Parser) ParseSentence(sentence string) *Parse {
	tokens := p.tagger.TagSentence(sentence)
	return p.ParseTagged(tokens)
}

// ParseTagged parses an already-tagged token sequence.
func (p *Parser) ParseTagged(tokens []pos.TaggedToken) *Parse {
	root := chunk(tokens)
	deps := extractDeps(tokens, root)
	return &Parse{Tokens: tokens, Tree: root, Deps: deps}
}

// chunk groups the tagged tokens into NP/VP/PP/ADVP chunks under an S root.
//
// Every node of one parse is bump-allocated from a single slab: a parse has
// at most len(tokens) leaves plus fewer than len(tokens) internal chunks and
// the root, so the cap guard never triggers in practice and the per-node heap
// allocations collapse into one backing-array allocation. The slab is only
// ever appended to while under capacity, so node pointers stay stable.
func chunk(tokens []pos.TaggedToken) *Node {
	arena := make([]Node, 0, 2*len(tokens)+4)
	alloc := func(label Label) *Node {
		if len(arena) < cap(arena) {
			arena = append(arena, Node{Label: label, TokenIndex: -1})
			return &arena[len(arena)-1]
		}
		return &Node{Label: label, TokenIndex: -1}
	}
	root := alloc(LabelS)
	i := 0
	n := len(tokens)
	leaf := func(idx int) *Node {
		nd := alloc(Label(tokens[idx].Tag))
		nd.Token = &tokens[idx]
		nd.TokenIndex = idx
		return nd
	}
	for i < n {
		tag := tokens[i].Tag
		switch {
		case isNPStart(tokens, i):
			node := alloc(LabelNP)
			for i < n && inNP(tokens, i, node) {
				node.Children = append(node.Children, leaf(i))
				i++
			}
			root.Children = append(root.Children, node)
		case tag.IsVerb() || tag == pos.MD || tag == pos.NEG:
			node := alloc(LabelVP)
			// Aux/modal/negation run followed by verbs and interleaved
			// adverbs/negations, plus trailing particles ("turn off").
			for i < n {
				t := tokens[i].Tag
				if t.IsVerb() || t == pos.MD || t == pos.NEG || t == pos.TO ||
					(t == pos.RB && i+1 < n && (tokens[i+1].Tag.IsVerb() || tokens[i+1].Tag == pos.NEG)) {
					node.Children = append(node.Children, leaf(i))
					i++
					continue
				}
				break
			}
			root.Children = append(root.Children, node)
		case tag == pos.IN || tag == pos.TO:
			node := alloc(LabelPP)
			node.Children = append(node.Children, leaf(i))
			i++
			// Attach the following NP inside the PP.
			if i < n && isNPStart(tokens, i) {
				np := alloc(LabelNP)
				for i < n && inNP(tokens, i, np) {
					np.Children = append(np.Children, leaf(i))
					i++
				}
				node.Children = append(node.Children, np)
			}
			root.Children = append(root.Children, node)
		case tag == pos.RB:
			node := alloc(LabelADVP)
			for i < n && tokens[i].Tag == pos.RB {
				node.Children = append(node.Children, leaf(i))
				i++
			}
			root.Children = append(root.Children, node)
		case tag == pos.CC:
			node := alloc(LabelCC)
			node.Children = []*Node{leaf(i)}
			root.Children = append(root.Children, node)
			i++
		default:
			node := alloc(LabelO)
			node.Children = []*Node{leaf(i)}
			root.Children = append(root.Children, node)
			i++
		}
	}
	return root
}

// isNPStart reports whether a noun phrase can start at position i.
func isNPStart(tokens []pos.TaggedToken, i int) bool {
	t := tokens[i].Tag
	switch t {
	case pos.DT, pos.PRPS, pos.CD, pos.PRP, pos.EX:
		return true
	case pos.JJ:
		// Adjective leading into a noun.
		return followedByNoun(tokens, i)
	case pos.VBG, pos.VBN:
		// Participle modifier directly before a noun ("saved picture").
		return followedByNoun(tokens, i)
	default:
		return t.IsNoun()
	}
}

func followedByNoun(tokens []pos.TaggedToken, i int) bool {
	for j := i + 1; j < len(tokens); j++ {
		t := tokens[j].Tag
		if t.IsNoun() {
			return true
		}
		if t != pos.JJ && t != pos.CD && t != pos.VBN && t != pos.VBG {
			return false
		}
	}
	return false
}

// inNP reports whether token i continues the noun phrase being built.
func inNP(tokens []pos.TaggedToken, i int, np *Node) bool {
	t := tokens[i].Tag
	switch t {
	case pos.DT, pos.PRPS, pos.CD:
		return len(np.Children) == 0 || !lastIsNoun(np)
	case pos.JJ:
		return !lastIsNoun(np) || followedByNoun(tokens, i)
	case pos.VBN, pos.VBG:
		// participle modifiers allowed before the head noun
		return !lastIsNoun(np) && followedByNoun(tokens, i)
	case pos.PRP, pos.EX:
		return len(np.Children) == 0
	default:
		return t.IsNoun()
	}
}

func lastIsNoun(np *Node) bool {
	if len(np.Children) == 0 {
		return false
	}
	last := np.Children[len(np.Children)-1]
	return last.Token != nil && last.Token.Tag.IsNoun()
}
