package textproc

import "sort"

// reviewDictionary is the built-in vocabulary of app-review English: the
// words that occur in mobile-app reviews about function errors, plus general
// high-frequency English. It doubles as the spell-repair target dictionary
// (§3.2.1).
var reviewDictionary = []string{
	// --- function-error core vocabulary ---
	"error", "errors", "bug", "bugs", "crash", "crashes", "crashed", "crashing",
	"fail", "fails", "failed", "failure", "broken", "broke", "freeze", "freezes",
	"frozen", "froze", "hang", "hangs", "hung", "stuck", "glitch", "glitches",
	"problem", "problems", "issue", "issues", "fault", "faults", "wrong",
	"exception", "defect", "defects", "corrupt", "corrupted",
	// --- app actions ---
	"open", "opens", "opened", "opening", "close", "closes", "closed", "closing",
	"launch", "launches", "launched", "launching", "start", "starts", "started",
	"starting", "stop", "stops", "stopped", "stopping", "install", "installed",
	"installing", "reinstall", "reinstalled", "uninstall", "uninstalled",
	"update", "updates", "updated", "updating", "upgrade", "upgraded",
	"download", "downloads", "downloaded", "downloading", "upload", "uploads",
	"uploaded", "uploading", "sync", "syncs", "synced", "syncing", "backup",
	"restore", "restored", "load", "loads", "loaded", "loading", "reload",
	"save", "saves", "saved", "saving", "delete", "deletes", "deleted",
	"deleting", "remove", "removed", "move", "moves", "moved", "moving",
	"send", "sends", "sent", "sending", "receive", "receives", "received",
	"receiving", "fetch", "fetches", "fetched", "fetching", "refresh",
	"refreshed", "connect", "connects", "connected", "connecting",
	"disconnect", "disconnected", "login", "logout", "register", "registered",
	"registering", "registration", "sign", "signin", "signup", "verify",
	"verified", "search", "searches", "searched", "searching", "find", "finds",
	"found", "finding", "play", "plays", "played", "playing", "pause", "paused",
	"record", "records", "recorded", "recording", "scroll", "scrolls",
	"scrolled", "scrolling", "swipe", "swiped", "tap", "taps", "tapped",
	"click", "clicks", "clicked", "clicking", "press", "pressed", "type",
	"typed", "typing", "write", "writes", "wrote", "writing", "read", "reads",
	"reading", "edit", "edits", "edited", "editing", "share", "shared",
	"sharing", "post", "posts", "posted", "posting", "reply", "replied",
	"replies", "forward", "forwarded", "import", "imported", "export",
	"exported", "browse", "browsed", "stream", "streamed", "notify",
	"notified", "show", "shows", "showed", "shown", "showing", "display",
	"displays", "displayed", "render", "rendered", "take", "takes", "took",
	"taken", "taking", "add", "adds", "added", "adding", "create", "created",
	"creating", "change", "changes", "changed", "changing", "switch",
	"switched", "select", "selected", "choose", "chose", "chosen", "view",
	"viewed", "watch", "watched", "listen", "listened", "check", "checked",
	"checking", "enable", "enabled", "disable", "disabled", "turn", "turned",
	"use", "uses", "used", "using", "work", "works", "worked", "working",
	"run", "runs", "ran", "running", "try", "tries", "tried", "trying",
	"keep", "keeps", "kept", "keeping", "get", "gets", "got", "getting",
	"make", "makes", "made", "making", "go", "goes", "went", "gone", "going",
	"come", "comes", "came", "coming", "see", "sees", "saw", "seen", "seeing",
	"say", "says", "said", "saying", "tell", "tells", "told", "need", "needs",
	"needed", "want", "wants", "wanted", "help", "helps", "helped", "fix",
	"fixes", "fixed", "fixing", "solve", "solved", "support", "supported",
	"respond", "responds", "responded", "appear", "appears", "appeared",
	"disappear", "disappears", "disappeared", "happen", "happens", "happened",
	"return", "returns", "returned", "poll", "polls", "polling", "flip",
	"flipped", "rotate", "rotated", "zoom", "resize", "cache", "cached",
	"log", "logs", "logged", "logging", "track", "tracked", "locate",
	"located", "navigate", "navigated", "transfer", "transferred",
	// --- nouns: app domain ---
	"app", "apps", "application", "applications", "phone", "phones", "tablet",
	"tablets", "device", "devices", "screen", "screens", "button", "buttons",
	"menu", "menus", "page", "pages", "tab", "tabs", "list", "lists", "view",
	"window", "windows", "widget", "widgets", "icon", "icons", "keyboard",
	"notification", "notifications", "message", "messages", "mail", "email",
	"emails", "inbox", "outbox", "draft", "drafts", "folder", "folders",
	"account", "accounts", "password", "passwords", "username", "user",
	"users", "profile", "profiles", "setting", "settings", "option", "options",
	"preference", "preferences", "feature", "features", "version", "versions",
	"release", "releases", "file", "files", "photo", "photos", "picture",
	"pictures", "image", "images", "video", "videos", "audio", "music",
	"song", "songs", "podcast", "podcasts", "episode", "episodes", "camera",
	"gallery", "album", "albums", "contact", "contacts", "call", "calls",
	"text", "texts", "sms", "mms", "chat", "chats", "conversation",
	"conversations", "group", "groups", "server", "servers", "network",
	"internet", "wifi", "data", "connection", "connections", "signal",
	"bluetooth", "gps", "location", "locations", "map", "maps", "direction",
	"directions", "battery", "memory", "storage", "card", "cards", "space",
	"cloud", "link", "links", "url", "site", "sites", "website", "websites",
	"browser", "feed", "feeds", "article", "articles", "news", "story",
	"stories", "comment", "comments", "review", "reviews", "rating", "ratings",
	"star", "stars", "post", "tweet", "tweets", "timeline", "stream",
	"certificate", "certificates", "key", "keys", "encryption", "security",
	"permission", "permissions", "backup", "backups", "widget", "theme",
	"themes", "font", "fonts", "language", "languages", "sound", "sounds",
	"volume", "alarm", "alarms", "clock", "calendar", "event", "events",
	"reminder", "reminders", "task", "tasks", "note", "notes", "book",
	"books", "reader", "library", "chapter", "chapters", "puzzle", "puzzles",
	"crossword", "crosswords", "game", "games", "level", "levels", "score",
	"scores", "stat", "stats", "statistic", "statistics", "cache", "database",
	"log", "trace", "socket", "pointer", "null", "timeout", "session",
	"sessions", "token", "widget", "layout", "attachment", "attachments",
	"signature", "signatures", "filter", "filters", "label", "labels",
	"archive", "trash", "spam", "deck", "decks", "flashcard", "flashcards",
	"route", "routes", "bus", "buses", "stop", "stops", "arrival", "arrivals",
	"torrent", "torrents", "lockscreen", "lock", "unlock", "pin", "gesture",
	"site", "blog", "blogs", "media", "player", "subtitle", "subtitles",
	"playlist", "playlists", "queue", "download", "downloads", "upload",
	"uploads", "geocache", "geocaches", "compass", "waypoint", "waypoints",
	// --- adjectives/adverbs common in reviews ---
	"good", "great", "nice", "awesome", "amazing", "excellent", "perfect",
	"best", "better", "bad", "worse", "worst", "terrible", "horrible",
	"awful", "useless", "annoying", "frustrating", "slow", "slower", "fast",
	"faster", "quick", "easy", "hard", "difficult", "simple", "clean",
	"beautiful", "ugly", "new", "newer", "old", "older", "latest", "recent",
	"last", "first", "previous", "current", "random", "blank", "black",
	"white", "empty", "full", "free", "paid", "premium", "stable", "unstable",
	"responsive", "unresponsive", "unusable", "unable", "impossible",
	"possible", "every", "each", "all", "some", "many", "much", "more",
	"most", "less", "least", "few", "several", "other", "another", "same",
	"different", "certain", "whole", "entire", "big", "small", "long",
	"short", "high", "low", "dark", "light", "wrong", "right", "correct",
	"incorrect", "missing", "available", "unavailable", "visible",
	"invisible", "upside", "down",
	// --- function words ---
	"the", "a", "an", "and", "or", "but", "nor", "so", "yet", "if", "then",
	"else", "when", "whenever", "while", "whereas", "because", "since",
	"although", "though", "however", "nevertheless", "anymore", "also",
	"too", "very", "really", "just", "only", "even", "still", "again",
	"always", "never", "sometimes", "often", "usually", "rarely",
	"constantly", "randomly", "suddenly", "recently", "currently", "now",
	"today", "yesterday", "before", "after", "until", "once", "twice",
	"here", "there", "where", "why", "how", "what", "which", "who", "whom",
	"whose", "this", "that", "these", "those", "it", "its", "i", "me", "my",
	"mine", "you", "your", "yours", "he", "him", "his", "she", "her", "hers",
	"we", "us", "our", "ours", "they", "them", "their", "theirs", "myself",
	"itself", "is", "am", "are", "was", "were", "be", "been", "being",
	"do", "does", "did", "doing", "done", "have", "has", "had", "having",
	"will", "would", "shall", "should", "can", "could", "may", "might",
	"must", "wont", "cant", "dont", "doesnt", "didnt", "isnt", "wasnt",
	"arent", "werent", "not", "no", "none", "nothing", "nobody", "nowhere",
	"neither", "never", "without", "in", "on", "at", "to", "of", "for",
	"from", "with", "by", "about", "into", "onto", "out", "off", "over",
	"under", "up", "down", "through", "between", "during", "against",
	"across", "behind", "beyond", "within", "per", "via", "please", "thanks",
	"thank", "sorry", "hello", "ok", "okay", "fine", "well", "anyway",
	"otherwise", "instead", "maybe", "perhaps", "probably", "definitely",
	"actually", "literally", "basically", "especially", "time", "times",
	"day", "days", "week", "weeks", "month", "months", "year", "years",
	"hour", "hours", "minute", "minutes", "second", "seconds", "moment",
	"middle", "end", "beginning", "top", "bottom", "left", "right", "side",
	"back", "front", "inside", "outside", "thing", "things", "stuff", "way",
	"ways", "lot", "lots", "bit", "part", "parts", "everything", "anything",
	"something", "someone", "anyone", "everyone", "people", "developer",
	"developers", "dev", "devs", "team", "company", "google", "android",
	"samsung", "nexus", "pixel", "xiaomi", "huawei", "galaxy", "note",
	"solution", "solutions",
}

// reviewAbbreviations maps common review shorthand to its expansion
// (§3.2.1: `"pls" to "please", "pic" to "picture"`).
var reviewAbbreviations = map[string]string{
	"pls":    "please",
	"plz":    "please",
	"pic":    "picture",
	"pics":   "pictures",
	"msg":    "message",
	"msgs":   "messages",
	"txt":    "text",
	"u":      "you",
	"ur":     "your",
	"r":      "are",
	"thx":    "thanks",
	"ty":     "thanks",
	"bc":     "because",
	"cuz":    "because",
	"coz":    "because",
	"w":      "with",
	"w/o":    "without",
	"app":    "app", // identity: keep "app" stable even though short
	"vid":    "video",
	"vids":   "videos",
	"fav":    "favorite",
	"favs":   "favorites",
	"notif":  "notification",
	"notifs": "notifications",
	"acct":   "account",
	"pw":     "password",
	"pwd":    "password",
	"wp":     "wordpress",
	"dl":     "download",
	"ppl":    "people",
	"rec":    "recommend",
	"esp":    "especially",
	"prob":   "problem",
	"probs":  "problems",
	"sec":    "second",
	"secs":   "seconds",
	"min":    "minute",
	"mins":   "minutes",
	"hr":     "hour",
	"hrs":    "hours",
	"config": "configuration",
	"sync":   "sync",
	"info":   "information",
}

// Stopwords is the stopword set used for topic-word extraction and method
// name conversion (e.g. removing "on" from lifecycle methods, §4.1.1).
var Stopwords = map[string]struct{}{
	"a": {}, "an": {}, "the": {}, "and": {}, "or": {}, "but": {}, "if": {},
	"of": {}, "at": {}, "by": {}, "for": {}, "with": {}, "about": {},
	"to": {}, "from": {}, "in": {}, "on": {}, "up": {}, "down": {},
	"out": {}, "off": {}, "over": {}, "under": {}, "again": {}, "then": {},
	"once": {}, "here": {}, "there": {}, "all": {}, "any": {}, "both": {},
	"each": {}, "few": {}, "more": {}, "most": {}, "some": {}, "such": {},
	"only": {}, "own": {}, "same": {}, "so": {}, "than": {}, "too": {},
	"very": {}, "can": {}, "will": {}, "just": {}, "is": {}, "am": {},
	"are": {}, "was": {}, "were": {}, "be": {}, "been": {}, "being": {},
	"do": {}, "does": {}, "did": {}, "doing": {}, "have": {}, "has": {},
	"had": {}, "having": {}, "i": {}, "me": {}, "my": {}, "we": {}, "our": {},
	"you": {}, "your": {}, "he": {}, "him": {}, "his": {}, "she": {},
	"her": {}, "it": {}, "its": {}, "they": {}, "them": {}, "their": {},
	"this": {}, "that": {}, "these": {}, "those": {}, "as": {}, "until": {},
	"while": {}, "when": {}, "where": {}, "why": {}, "how": {}, "what": {},
	"which": {}, "who": {}, "whom": {}, "no": {}, "nor": {}, "not": {},
	"s": {}, "t": {}, "don": {}, "now": {}, "get": {}, "gets": {},
}

// IsStopword reports whether the lower-cased word is a stopword.
func IsStopword(word string) bool {
	_, ok := Stopwords[word]
	return ok
}

// DictionaryList returns the built-in review-English dictionary in sorted
// order, for interner construction.
func DictionaryList() []string {
	out := append([]string(nil), reviewDictionary...)
	sort.Strings(out)
	// The raw word list carries a few duplicates; return each word once.
	dedup := out[:0]
	for i, w := range out {
		if i == 0 || w != out[i-1] {
			dedup = append(dedup, w)
		}
	}
	return dedup
}

// StopwordList returns the stopword set in sorted order, for interner
// construction.
func StopwordList() []string {
	out := make([]string, 0, len(Stopwords))
	for w := range Stopwords {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// AbbreviationList returns the abbreviations and their expansions (both
// sides, deduplicated) in sorted order, for interner construction.
func AbbreviationList() []string {
	seen := make(map[string]struct{}, 2*len(reviewAbbreviations))
	out := make([]string, 0, 2*len(reviewAbbreviations))
	for abbr, exp := range reviewAbbreviations {
		for _, w := range [2]string{abbr, exp} {
			if _, dup := seen[w]; !dup {
				seen[w] = struct{}{}
				out = append(out, w)
			}
		}
	}
	sort.Strings(out)
	return out
}
