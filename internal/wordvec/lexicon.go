package wordvec

import "sort"

// synGroup is a set of near-synonymous words sharing a group anchor, grouped
// under a broader topic anchor. Words inside one group are similar (cos ≈
// 0.8); words in different groups of the same topic are related but below
// the matching threshold (cos ≈ 0.3).
type synGroup struct {
	topic string
	words []string
}

// anchor is the group's stable identity (its first word).
func (g synGroup) anchor() string { return g.words[0] }

// synonymGroups is the curated domain lexicon. It covers the vocabulary of
// the paper's motivating examples: "picture" ≈ "video" (same media topic? —
// no: the paper treats them as *similar nouns*, so they share one group),
// "fetch mail" ≈ "get email", "send SMS" ≈ "send text message", etc.
var synonymGroups = []synGroup{
	// --- messaging ---
	{topic: "messaging", words: []string{"mail", "email", "emails", "inbox", "gmail"}},
	{topic: "messaging", words: []string{"message", "messages", "sms", "mms", "text", "texts"}},
	{topic: "messaging", words: []string{"chat", "chats", "conversation", "conversations", "thread"}},
	{topic: "messaging", words: []string{"notification", "notifications", "alert", "alerts"}},
	{topic: "messaging", words: []string{"draft", "drafts", "outbox"}},
	{topic: "messaging", words: []string{"attachment", "attachments", "enclosure"}},

	// --- media ---
	{topic: "media", words: []string{"picture", "pictures", "photo", "photos", "image", "images", "video", "videos", "snapshot", "shot", "media", "clip"}},
	{topic: "media", words: []string{"camera", "lens", "viewfinder"}},
	{topic: "media", words: []string{"gallery", "album", "albums"}},
	{topic: "media", words: []string{"music", "song", "songs", "audio", "track", "tracks", "sound"}},
	{topic: "media", words: []string{"podcast", "podcasts", "episode", "episodes"}},
	{topic: "media", words: []string{"play", "plays", "playing", "played", "playback", "stream", "streaming"}},
	{topic: "media", words: []string{"record", "records", "recording", "capture", "captures", "capturing", "snap", "tape"}},
	{topic: "media", words: []string{"subtitle", "subtitles", "caption", "captions"}},

	// --- transfer verbs ---
	{topic: "transfer", words: []string{"send", "sends", "sending", "sent", "transmit", "deliver", "submit"}},
	{topic: "transfer", words: []string{"upload", "uploads", "uploading", "uploaded", "post", "posts", "posting", "publish"}},
	{topic: "transfer", words: []string{"receive", "receives", "receiving", "received", "fetch", "fetches", "fetching", "fetched", "get", "gets", "getting", "got", "retrieve", "retrieves", "download", "downloads", "downloading", "downloaded", "pull", "obtain"}},
	{topic: "transfer", words: []string{"sync", "syncs", "syncing", "synced", "synchronize", "synchronization", "refresh", "refreshes", "refreshing", "update", "updates", "updating", "updated", "upgrade", "upgraded"}},
	{topic: "transfer", words: []string{"share", "shares", "sharing", "shared", "forward", "forwards", "forwarding"}},
	{topic: "transfer", words: []string{"import", "imports", "importing", "export", "exports", "exporting", "transfer", "transfers", "migrate", "backup", "restore"}},

	// --- storage ---
	{topic: "storage", words: []string{"save", "saves", "saving", "saved", "store", "stores", "storing", "stored", "write", "writes", "writing", "persist", "keep"}},
	{topic: "storage", words: []string{"delete", "deletes", "deleting", "deleted", "remove", "removes", "removing", "removed", "erase", "clear", "clears", "discard", "trash"}},
	{topic: "storage", words: []string{"file", "files", "document", "documents", "folder", "folders", "directory"}},
	{topic: "storage", words: []string{"storage", "memory", "card", "disk", "space", "sdcard", "sd"}},
	{topic: "storage", words: []string{"cache", "cached", "caching", "buffer"}},
	{topic: "storage", words: []string{"database", "db", "table", "record"}},

	// --- network ---
	{topic: "network", words: []string{"connect", "connects", "connecting", "connected", "connection", "connections", "reconnect"}},
	{topic: "network", words: []string{"server", "servers", "host", "backend", "cloud", "service"}},
	{topic: "network", words: []string{"network", "internet", "wifi", "data", "cellular", "lte"}},
	{topic: "network", words: []string{"link", "links", "url", "urls", "address", "site", "sites", "website", "websites", "webpage", "page", "pages"}},
	{topic: "network", words: []string{"browse", "browses", "browsing", "browser", "surf", "visit", "navigate", "open"}},
	{topic: "network", words: []string{"certificate", "certificates", "ssl", "tls", "https", "cert", "certs"}},
	{topic: "network", words: []string{"socket", "sockets", "port", "tcp"}},
	{topic: "network", words: []string{"timeout", "latency", "lag", "delay"}},

	// --- account/security ---
	{topic: "account", words: []string{"login", "log", "signin", "authenticate", "authentication", "auth"}},
	{topic: "account", words: []string{"register", "registers", "registering", "registration", "signup", "enroll", "join"}},
	{topic: "account", words: []string{"account", "accounts", "profile", "profiles", "credential", "credentials"}},
	{topic: "account", words: []string{"password", "passwords", "passphrase", "pin", "passcode"}},
	{topic: "account", words: []string{"verify", "verifies", "verification", "confirm", "confirms", "confirmation", "validate", "validation"}},
	{topic: "account", words: []string{"encrypt", "encryption", "encrypted", "decrypt", "secure", "security"}},

	// --- telephony/contacts ---
	{topic: "telephony", words: []string{"contact", "contacts", "address", "addressbook", "people"}},
	{topic: "telephony", words: []string{"call", "calls", "calling", "called", "dial", "dials", "dialing", "phone", "ring"}},
	{topic: "telephony", words: []string{"voicemail", "calllog"}},

	// --- location ---
	{topic: "location", words: []string{"location", "locations", "gps", "position", "coordinates", "place"}},
	{topic: "location", words: []string{"map", "maps", "navigation", "route", "routes", "directions"}},
	{topic: "location", words: []string{"track", "tracks", "tracking", "locate", "locates", "locating", "find", "finds", "finding", "found", "search", "searches", "searching", "lookup", "discover", "query"}},

	// --- UI ---
	{topic: "ui", words: []string{"button", "buttons", "key", "control"}},
	{topic: "ui", words: []string{"screen", "screens", "display", "page", "window", "activity", "lockscreen"}},
	{topic: "ui", words: []string{"menu", "menus", "toolbar", "drawer", "navigation"}},
	{topic: "ui", words: []string{"widget", "widgets", "component", "view", "element"}},
	{topic: "ui", words: []string{"click", "clicks", "clicked", "tap", "taps", "tapped", "press", "presses", "pressed", "touch", "push"}},
	{topic: "ui", words: []string{"scroll", "scrolls", "scrolling", "swipe", "swipes", "swiping", "slide"}},
	{topic: "ui", words: []string{"type", "types", "typing", "enter", "input", "edit", "edits", "editing", "write"}},
	{topic: "ui", words: []string{"show", "shows", "showing", "shown", "display", "displays", "displaying", "displayed", "render", "renders", "rendering", "appear", "appears"}},
	{topic: "ui", words: []string{"hide", "hides", "hidden", "dismiss", "disappear", "disappears", "vanish"}},
	{topic: "ui", words: []string{"theme", "themes", "font", "fonts", "color", "colors", "style", "dark", "light"}},
	{topic: "ui", words: []string{"keyboard", "keypad", "ime"}},
	{topic: "ui", words: []string{"reply", "replies", "replying", "respond", "responds", "answer", "answers"}},

	// --- lifecycle ---
	{topic: "lifecycle", words: []string{"open", "opens", "opening", "opened", "launch", "launches", "launching", "launched", "start", "starts", "starting", "started", "boot", "run", "runs", "running"}},
	{topic: "lifecycle", words: []string{"close", "closes", "closing", "closed", "exit", "exits", "quit", "stop", "stops", "stopping", "stopped", "terminate", "kill"}},
	{topic: "lifecycle", words: []string{"install", "installs", "installed", "installing", "reinstall", "reinstalled", "setup"}},
	{topic: "lifecycle", words: []string{"uninstall", "uninstalled", "uninstalling", "deinstall"}},
	{topic: "lifecycle", words: []string{"resume", "resumes", "resumed", "pause", "pauses", "paused", "suspend"}},
	{topic: "lifecycle", words: []string{"create", "creates", "creating", "created", "make", "makes", "making", "made", "add", "adds", "adding", "added", "new", "insert"}},

	// --- errors ---
	{topic: "errors", words: []string{"error", "errors", "bug", "bugs", "fault", "faults", "defect", "defects", "glitch", "glitches", "issue", "issues", "problem", "problems", "flaw"}},
	{topic: "errors", words: []string{"crash", "crashes", "crashed", "crashing", "die", "dies", "died", "abort"}},
	{topic: "errors", words: []string{"freeze", "freezes", "frozen", "froze", "freezing", "hang", "hangs", "hung", "stuck", "unresponsive"}},
	{topic: "errors", words: []string{"fail", "fails", "failed", "failing", "failure", "failures", "broken", "broke", "break", "breaks"}},
	{topic: "errors", words: []string{"exception", "exceptions", "stacktrace", "traceback"}},
	{topic: "errors", words: []string{"fix", "fixes", "fixed", "fixing", "repair", "patch", "resolve", "solve", "solved"}},

	// --- reading/content ---
	{topic: "content", words: []string{"read", "reads", "reading", "view", "views", "viewing", "viewed", "watch", "watches", "watching", "see", "look"}},
	{topic: "content", words: []string{"book", "books", "ebook", "novel", "chapter", "chapters", "reader"}},
	{topic: "content", words: []string{"article", "articles", "feed", "feeds", "news", "story", "stories", "post", "posts"}},
	{topic: "content", words: []string{"comment", "comments", "reply", "review", "reviews"}},
	{topic: "content", words: []string{"tweet", "tweets", "timeline", "status"}},
	{topic: "content", words: []string{"load", "loads", "loading", "loaded", "reload", "render"}},

	// --- settings/config ---
	{topic: "settings", words: []string{"setting", "settings", "preference", "preferences", "option", "options", "configuration", "config", "configure"}},
	{topic: "settings", words: []string{"enable", "enables", "enabled", "activate", "turn"}},
	{topic: "settings", words: []string{"disable", "disables", "disabled", "deactivate", "off"}},
	{topic: "settings", words: []string{"select", "selects", "selected", "choose", "chooses", "chose", "pick", "picks", "switch", "toggle"}},

	// --- misc app nouns ---
	{topic: "misc", words: []string{"app", "apps", "application", "applications", "program", "software"}},
	{topic: "misc", words: []string{"version", "versions", "release", "releases", "build"}},
	{topic: "misc", words: []string{"device", "devices", "tablet", "handset"}},
	{topic: "misc", words: []string{"battery", "power", "charge"}},
	{topic: "misc", words: []string{"permission", "permissions", "access", "grant"}},
	{topic: "misc", words: []string{"calendar", "event", "events", "schedule", "reminder", "reminders", "alarm", "alarms"}},
	{topic: "misc", words: []string{"task", "tasks", "todo", "note", "notes"}},
	{topic: "misc", words: []string{"game", "games", "puzzle", "puzzles", "crossword", "crosswords", "solitaire", "level"}},
	{topic: "misc", words: []string{"card", "cards", "deck", "decks", "flashcard", "flashcards"}},
	{topic: "misc", words: []string{"stat", "stats", "statistic", "statistics", "score", "scores", "progress", "history"}},
	{topic: "misc", words: []string{"bus", "transit", "stop", "stops", "arrival", "arrivals", "departure"}},
	{topic: "misc", words: []string{"torrent", "torrents", "magnet", "seed"}},
	{topic: "misc", words: []string{"geocache", "geocaches", "cache", "waypoint", "waypoints", "compass"}},
	{topic: "misc", words: []string{"blog", "blogs", "wordpress", "site"}},
	{topic: "misc", words: []string{"filter", "filters", "sort", "label", "labels", "tag", "tags", "category"}},
	{topic: "misc", words: []string{"log", "logs", "journal", "visit"}},
	{topic: "misc", words: []string{"archive", "archives", "archived"}},
}

// LexiconWords returns every word of the embedding lexicon (group words and
// topic anchors, deduplicated) in sorted order, for interner construction.
func LexiconWords() []string {
	seen := make(map[string]struct{}, 8*len(synonymGroups))
	var out []string
	add := func(w string) {
		if _, ok := seen[w]; !ok {
			seen[w] = struct{}{}
			out = append(out, w)
		}
	}
	for _, g := range synonymGroups {
		add(g.topic)
		for _, w := range g.words {
			add(w)
		}
	}
	sort.Strings(out)
	return out
}
