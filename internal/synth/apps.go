package synth

// appSpec describes one evaluation app to generate.
type appSpec struct {
	pkg      string
	name     string
	domain   string
	versions int // number of APK releases to generate
	// paperVersions is the #APK column of Table 6 (reported, not generated:
	// generating 551 releases would only replicate identical classes).
	paperVersions int
	hasBugReports bool
	hasRelNotes   bool
	reviews       int
}

// table6Apps are the 18 evaluation apps (Table 6). The bug-report flag
// marks the 8 apps of Table 8; the release-note flag marks the 6 apps of
// Table 9.
var table6Apps = []appSpec{
	{pkg: "org.mariotaku.twidere", name: "Twidere", domain: "social", versions: 6, paperVersions: 12, hasBugReports: true, reviews: 450},
	{pkg: "com.zegoggles.smssync", name: "SMS Backup+", domain: "messaging", versions: 6, paperVersions: 44, reviews: 620},
	{pkg: "org.thoughtcrime.securesms", name: "Signal", domain: "messaging", versions: 8, paperVersions: 47, hasBugReports: true, reviews: 400},
	{pkg: "com.totsp.crossword.shortyz", name: "Shortyz Crosswords", domain: "games", versions: 4, paperVersions: 9, reviews: 520},
	{pkg: "com.fsck.k9", name: "K-9 Mail", domain: "mail", versions: 8, paperVersions: 80, hasBugReports: true, hasRelNotes: true, reviews: 480},
	{pkg: "com.andrewshu.android.reddit", name: "rif is fun for Reddit", domain: "social", versions: 6, paperVersions: 59, reviews: 380},
	{pkg: "fr.xplod.focal", name: "Focal", domain: "media", versions: 1, paperVersions: 1, reviews: 560},
	{pkg: "org.geometerplus.zlibrary.ui.android", name: "FBReader", domain: "reader", versions: 6, paperVersions: 35, reviews: 300},
	{pkg: "com.battlelancer.seriesguide", name: "SeriesGuide", domain: "media", versions: 8, paperVersions: 109, hasBugReports: true, hasRelNotes: true, reviews: 460},
	{pkg: "org.wordpress.android", name: "WordPress", domain: "social", versions: 8, paperVersions: 205, hasBugReports: true, hasRelNotes: true, reviews: 430},
	{pkg: "com.kmagic.solitaire", name: "Solitaire", domain: "games", versions: 1, paperVersions: 1, reviews: 260},
	{pkg: "org.coolreader", name: "Cool Reader", domain: "reader", versions: 4, paperVersions: 7, reviews: 420},
	{pkg: "cgeo.geocaching", name: "Cgeo", domain: "maps", versions: 8, paperVersions: 93, hasBugReports: true, hasRelNotes: true, reviews: 320},
	{pkg: "com.joulespersecond.seattlebusbot", name: "OneBusAway", domain: "maps", versions: 6, paperVersions: 66, hasBugReports: true, hasRelNotes: true, reviews: 350},
	{pkg: "com.achep.acdisplay", name: "AcDisplay", domain: "tools", versions: 6, paperVersions: 31, reviews: 500},
	{pkg: "de.danoeh.antennapod", name: "AntennaPod", domain: "media", versions: 5, paperVersions: 11, hasBugReports: true, hasRelNotes: true, reviews: 280},
	{pkg: "com.frostwire.android", name: "FrostWire", domain: "tools", versions: 8, paperVersions: 271, reviews: 470},
	{pkg: "com.ichi2.anki", name: "AnkiDroid", domain: "tools", versions: 8, paperVersions: 551, reviews: 370},
}

// table14Apps are the 10 additional apps used for the overfitting check
// (Table 14).
var table14Apps = []appSpec{
	{pkg: "dev.msfjarvis.aps", name: "Password Store", domain: "tools", versions: 3, paperVersions: 12, reviews: 60},
	{pkg: "com.irccloud.android", name: "IRCCloud", domain: "messaging", versions: 4, paperVersions: 25, reviews: 180},
	{pkg: "com.iskrembilen.quasseldroid", name: "Quasseldroid IRC", domain: "messaging", versions: 3, paperVersions: 9, reviews: 80},
	{pkg: "org.primftpd", name: "primitive ftpd", domain: "tools", versions: 3, paperVersions: 14, reviews: 55},
	{pkg: "com.seafile.seadroid2", name: "Seafile", domain: "tools", versions: 4, paperVersions: 30, reviews: 160},
	{pkg: "com.javiersantos.mlmanager", name: "ML Manager", domain: "tools", versions: 2, paperVersions: 6, reviews: 50},
	{pkg: "net.cyclestreets", name: "CycleStreets", domain: "maps", versions: 4, paperVersions: 40, reviews: 190},
	{pkg: "ca.mimic.apphangar", name: "Hangar", domain: "tools", versions: 3, paperVersions: 12, reviews: 150},
	{pkg: "com.qbittorrent.client", name: "qBittorrent", domain: "tools", versions: 4, paperVersions: 18, reviews: 140},
	{pkg: "org.mozilla.mozstumbler", name: "MozStumbler", domain: "maps", versions: 3, paperVersions: 20, reviews: 130},
}

// Table6Specs exposes the Table 6 inventory for the experiment runner.
func Table6Specs() []AppInfo {
	return specInfos(table6Apps)
}

// AppInfo is the public view of an app specification.
type AppInfo struct {
	Package       string
	Name          string
	Domain        string
	PaperVersions int
	Versions      int
	HasBugReports bool
	HasRelNotes   bool
}

func specInfos(specs []appSpec) []AppInfo {
	out := make([]AppInfo, len(specs))
	for i, s := range specs {
		out[i] = AppInfo{
			Package:       s.pkg,
			Name:          s.name,
			Domain:        s.domain,
			PaperVersions: s.paperVersions,
			Versions:      s.versions,
			HasBugReports: s.hasBugReports,
			HasRelNotes:   s.hasRelNotes,
		}
	}
	return out
}
