package textproc

import (
	"strings"
	"unicode"
)

// SplitIdentifier splits a source-code identifier into lower-cased words.
// It handles camelCase ("getEmail" → ["get","email"]), PascalCase
// ("MessageListFragment" → ["message","list","fragment"]), snake_case
// ("quoted_text_edit" → ["quoted","text","edit"]), digits ("k9mail" →
// ["k9mail"] keeps digit-joined runs; "button2" → ["button","2"] splits
// trailing digits), and acronym runs ("HTTPClient" → ["http","client"]).
// The paper uses this both for method-name → verb-phrase conversion (§4.1.1)
// and for widget-id label extraction (§3.3.2).
func SplitIdentifier(id string) []string {
	if id == "" {
		return nil
	}
	var words []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			words = append(words, strings.ToLower(cur.String()))
			cur.Reset()
		}
	}
	runes := []rune(id)
	for i, r := range runes {
		switch {
		case r == '_' || r == '-' || r == '$' || r == '.' || r == '/' || r == ' ':
			flush()
		case unicode.IsUpper(r):
			// Boundary before an upper-case letter unless we are inside an
			// acronym run that continues ("HTTPClient": split before 'C').
			if cur.Len() > 0 {
				prevUpper := i > 0 && unicode.IsUpper(runes[i-1])
				nextLower := i+1 < len(runes) && unicode.IsLower(runes[i+1])
				if !prevUpper || nextLower {
					flush()
				}
			}
			cur.WriteRune(unicode.ToLower(r))
		case unicode.IsDigit(r):
			// Split a digit run off unless the preceding word is a single
			// letter (keeps "k9" together).
			if cur.Len() > 1 && !unicode.IsDigit(runes[i-1]) {
				flush()
			}
			cur.WriteRune(r)
		default:
			if cur.Len() > 0 && unicode.IsDigit(runes[i-1]) && cur.Len() > 2 {
				flush()
			}
			cur.WriteRune(r)
		}
	}
	flush()
	return words
}

// uiAbbreviations maps the 39 UI-related abbreviations the paper collected
// from Android naming-convention guides (§3.3.2, "abbreviation matching
// method") to their raw words.
var uiAbbreviations = map[string]string{
	"btn":     "button",
	"rb":      "radio button",
	"cb":      "checkbox",
	"chk":     "checkbox",
	"txt":     "text",
	"tv":      "text view",
	"et":      "edit text",
	"edt":     "edit text",
	"img":     "image",
	"iv":      "image view",
	"ib":      "image button",
	"lbl":     "label",
	"lv":      "list view",
	"rv":      "recycler view",
	"gv":      "grid view",
	"sv":      "scroll view",
	"sp":      "spinner",
	"spn":     "spinner",
	"pb":      "progress bar",
	"prog":    "progress",
	"sb":      "seek bar",
	"sw":      "switch",
	"tb":      "toggle button",
	"rg":      "radio group",
	"rl":      "relative layout",
	"ll":      "linear layout",
	"fl":      "frame layout",
	"cl":      "constraint layout",
	"tl":      "table layout",
	"vp":      "view pager",
	"wv":      "web view",
	"fab":     "floating action button",
	"bg":      "background",
	"fg":      "foreground",
	"ic":      "icon",
	"nav":     "navigation",
	"toolbar": "toolbar",
	"dlg":     "dialog",
	"frag":    "fragment",
	"act":     "activity",
	"pwd":     "password",
	"num":     "number",
	"tgl":     "toggle",
}

// ExpandUIAbbreviation replaces a widget-id word with its raw UI word(s) if
// it is a known UI abbreviation; otherwise it returns the word unchanged.
func ExpandUIAbbreviation(word string) string {
	if exp, ok := uiAbbreviations[word]; ok {
		return exp
	}
	return word
}

// ExpandUIWords expands every abbreviation in a widget-id word list,
// flattening multi-word expansions ("rb" → "radio", "button").
func ExpandUIWords(words []string) []string {
	out := make([]string, 0, len(words))
	for _, w := range words {
		exp := ExpandUIAbbreviation(w)
		if exp == w {
			out = append(out, w)
			continue
		}
		out = append(out, strings.Fields(exp)...)
	}
	return out
}
