package parser

import (
	"strings"
	"testing"

	"reviewsolver/internal/pos"
)

// findToken returns the index of the first token with the given lower text.
func findToken(p *Parse, lower string) int {
	for i, t := range p.Tokens {
		if t.Lower == lower {
			return i
		}
	}
	return -1
}

func TestFig2Sentence(t *testing.T) {
	// The paper's Fig. 2 sentence: "the app does not contain any bugs".
	p := New().ParseSentence("the app does not contain any bugs")

	// Parse tree must contain the two NPs "the app" and "any bugs".
	nps := p.Tree.PhrasesLabeled(LabelNP)
	var npTexts []string
	for _, np := range nps {
		npTexts = append(npTexts, strings.ToLower(np.Text()))
	}
	wantNPs := map[string]bool{"the app": false, "any bugs": false}
	for _, txt := range npTexts {
		if _, ok := wantNPs[txt]; ok {
			wantNPs[txt] = true
		}
	}
	for np, seen := range wantNPs {
		if !seen {
			t.Errorf("parse tree missing NP %q; got %v", np, npTexts)
		}
	}

	// dobj(contain, bugs), neg(contain, not), nsubj(contain, app).
	contain, not, app, bugs := findToken(p, "contain"), findToken(p, "not"),
		findToken(p, "app"), findToken(p, "bugs")
	if !p.HasDep(RelDObj, contain, bugs) {
		t.Errorf("missing dobj(contain,bugs); deps: %v", p.Deps)
	}
	if !p.HasDep(RelNeg, contain, not) {
		t.Errorf("missing neg(contain,not); deps: %v", p.Deps)
	}
	if !p.HasDep(RelNSubj, contain, app) {
		t.Errorf("missing nsubj(contain,app); deps: %v", p.Deps)
	}
}

func TestVerbObjectExtraction(t *testing.T) {
	tests := []struct {
		sentence  string
		verb, obj string
	}{
		{"i cannot send sms", "send", "sms"},
		{"unable to fetch mail on samsung", "fetch", "mail"},
		{"the app cannot save photos", "save", "photos"},
		{"signal crashed when i tried to find contact", "find", "contact"},
	}
	for _, tt := range tests {
		p := New().ParseSentence(tt.sentence)
		verb, obj := findToken(p, tt.verb), findToken(p, tt.obj)
		if verb < 0 || obj < 0 {
			t.Fatalf("%q: tokens not found", tt.sentence)
		}
		if !p.HasDep(RelDObj, verb, obj) {
			t.Errorf("%q: missing dobj(%s,%s); deps=%v tags=%v",
				tt.sentence, tt.verb, tt.obj, p.Deps, tagsOf(p))
		}
	}
}

func tagsOf(p *Parse) []pos.Tag {
	out := make([]pos.Tag, len(p.Tokens))
	for i, t := range p.Tokens {
		out[i] = t.Tag
	}
	return out
}

func TestPassive(t *testing.T) {
	p := New().ParseSentence("the picture gets flipped")
	flipped, picture := findToken(p, "flipped"), findToken(p, "picture")
	if !p.HasDep(RelNSubjPass, flipped, picture) {
		t.Errorf("missing nsubjpass(flipped,picture); deps=%v tags=%v", p.Deps, tagsOf(p))
	}
}

func TestCoordination(t *testing.T) {
	p := New().ParseSentence("it crashes but i love the design")
	but := findToken(p, "but")
	found := false
	for _, d := range p.Deps {
		if d.Rel == RelCC && d.Dep == but {
			found = true
		}
	}
	if !found {
		t.Errorf("missing cc dependency for 'but'; deps=%v", p.Deps)
	}
}

func TestPrepositionalPhrase(t *testing.T) {
	p := New().ParseSentence("i cannot save photos to sd card")
	to, card := findToken(p, "to"), findToken(p, "card")
	if !p.HasDep(RelPObj, to, card) {
		t.Errorf("missing pobj(to,card); deps=%v tags=%v", p.Deps, tagsOf(p))
	}
}

func TestTreeRendering(t *testing.T) {
	p := New().ParseSentence("the app crashes")
	s := p.Tree.String()
	for _, want := range []string{"(S", "(NP", "(VP", "(DT the)", "(NN app)"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered tree missing %q:\n%s", want, s)
		}
	}
}

func TestLeavesOrder(t *testing.T) {
	p := New().ParseSentence("the reply button does not show")
	leaves := p.Tree.Leaves()
	if len(leaves) != len(p.Tokens) {
		t.Fatalf("leaves %d != tokens %d", len(leaves), len(p.Tokens))
	}
	for i, leaf := range leaves {
		if leaf.TokenIndex != i {
			t.Errorf("leaf %d has TokenIndex %d", i, leaf.TokenIndex)
		}
	}
}

func TestNPWithModifiers(t *testing.T) {
	p := New().ParseSentence("the last phone call failed")
	nps := p.Tree.PhrasesLabeled(LabelNP)
	if len(nps) == 0 {
		t.Fatal("no NP found")
	}
	if got := strings.ToLower(nps[0].Text()); got != "the last phone call" {
		t.Errorf("NP = %q, want 'the last phone call'", got)
	}
	call, last := findToken(p, "call"), findToken(p, "last")
	if !p.HasDep(RelAMod, call, last) {
		t.Errorf("missing amod(call,last); deps=%v", p.Deps)
	}
	phone := findToken(p, "phone")
	if !p.HasDep(RelCompound, call, phone) {
		t.Errorf("missing compound(call,phone); deps=%v", p.Deps)
	}
}

func TestDepsWithRel(t *testing.T) {
	p := New().ParseSentence("the app does not contain any bugs")
	negs := p.DepsWithRel(RelNeg)
	if len(negs) != 1 {
		t.Errorf("want exactly 1 neg dep, got %v", negs)
	}
}

func TestEmptySentence(t *testing.T) {
	p := New().ParseSentence("")
	if len(p.Tokens) != 0 || len(p.Deps) != 0 {
		t.Errorf("empty sentence produced tokens=%d deps=%d", len(p.Tokens), len(p.Deps))
	}
	if p.Tree == nil || p.Tree.Label != LabelS {
		t.Error("empty sentence should still have an S root")
	}
}

// Text returns the surface text covered by the node.
func (n *Node) Text() string {
	if n.IsLeaf() {
		return n.Token.Text
	}
	parts := make([]string, 0, len(n.Children))
	for _, c := range n.Children {
		parts = append(parts, c.Text())
	}
	return strings.Join(parts, " ")
}

// HasDep reports whether relation rel holds between head and dep.
func (p *Parse) HasDep(rel string, head, dep int) bool {
	for _, d := range p.Deps {
		if d.Rel == rel && d.Head == head && d.Dep == dep {
			return true
		}
	}
	return false
}
