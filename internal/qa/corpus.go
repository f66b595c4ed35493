package qa

import (
	"fmt"
	"strings"

	"reviewsolver/internal/sdk"
)

// task describes one general task with its title phrasings and the
// framework APIs used to implement it.
type task struct {
	titles []string
	apis   []APIRef
}

// generalTasks is the template set behind the generated corpus. Each task
// mirrors a cluster of real Stack Overflow questions: several phrasings of
// the same problem whose accepted answers call the same framework APIs.
var generalTasks = []task{
	{
		titles: []string{
			"How to download a file in Android",
			"Download file from server not completing",
			"Android download files with progress",
			"File downloads fail on mobile data",
		},
		apis: []APIRef{
			{Class: "java.net.URL", Method: "openConnection"},
			{Class: "java.net.HttpURLConnection", Method: "getInputStream"},
			{Class: "java.io.FileOutputStream", Method: "write"},
			{Class: "android.app.DownloadManager", Method: "enqueue"},
		},
	},
	{
		titles: []string{
			"How to upload photo to server Android",
			"Upload image file via http post",
			"Uploading photos error android",
		},
		apis: []APIRef{
			{Class: "java.net.URL", Method: "openConnection"},
			{Class: "java.net.HttpURLConnection", Method: "getResponseCode"},
			{Class: "java.io.FileInputStream", Method: "read"},
		},
	},
	{
		titles: []string{
			"How to send sms programmatically in Android",
			"Send text message from my app",
			"Cannot send sms to some numbers",
		},
		apis: []APIRef{
			{Class: "android.telephony.SmsManager", Method: "sendTextMessage"},
			{Class: "android.telephony.SmsManager", Method: "divideMessage"},
		},
	},
	{
		titles: []string{
			"How to send email from android app",
			"Send mail with attachment Android intent",
		},
		apis: []APIRef{
			{Class: "android.app.Activity", Method: "startActivity"},
		},
	},
	{
		titles: []string{
			"Connect to server 404 error android webview",
			"WebView loadUrl returns 404 not found",
			"404 error when adding site url",
			"how to connect server and check response code",
		},
		apis: []APIRef{
			{Class: "android.webkit.WebView", Method: "loadUrl"},
			{Class: "java.net.HttpURLConnection", Method: "getResponseCode"},
			{Class: "java.net.URLConnection", Method: "connect"},
		},
	},
	{
		titles: []string{
			"How to get current location in Android",
			"Get gps location updates",
			"Location is null on some devices",
		},
		apis: []APIRef{
			{Class: "android.location.LocationManager", Method: "requestLocationUpdates"},
			{Class: "android.location.LocationManager", Method: "getLastKnownLocation"},
		},
	},
	{
		titles: []string{
			"How to read contacts in Android",
			"Query contacts content provider",
			"find contact by name android",
		},
		apis: []APIRef{
			{Class: "android.content.ContentResolver", Method: "query"},
		},
	},
	{
		titles: []string{
			"How to take picture with camera intent",
			"Take photo and save to file android",
			"Camera preview freezes when taking picture",
		},
		apis: []APIRef{
			{Class: "android.hardware.Camera", Method: "open"},
			{Class: "android.hardware.Camera", Method: "takePicture"},
			{Class: "android.app.Activity", Method: "startActivityForResult"},
		},
	},
	{
		titles: []string{
			"How to record video in android",
			"MediaRecorder start fails",
			"record audio and video at the same time",
		},
		apis: []APIRef{
			{Class: "android.media.MediaRecorder", Method: "setVideoSource"},
			{Class: "android.media.MediaRecorder", Method: "setAudioSource"},
			{Class: "android.media.MediaRecorder", Method: "start"},
		},
	},
	{
		titles: []string{
			"How to play audio file in android",
			"MediaPlayer start playing music",
			"play video from url android",
		},
		apis: []APIRef{
			{Class: "android.media.MediaPlayer", Method: "setDataSource"},
			{Class: "android.media.MediaPlayer", Method: "prepare"},
			{Class: "android.media.MediaPlayer", Method: "start"},
		},
	},
	{
		titles: []string{
			"How to save data to file in android",
			"Save file to sd card external storage",
			"cannot save photos to sd card",
			"write file to external storage fails",
		},
		apis: []APIRef{
			{Class: "android.os.Environment", Method: "getExternalStorageDirectory"},
			{Class: "java.io.FileOutputStream", Method: "write"},
			{Class: "java.io.File", Method: "createNewFile"},
		},
	},
	{
		titles: []string{
			"How to sync data with server in background",
			"Sync account data periodically android",
			"sync does not work after update",
		},
		apis: []APIRef{
			{Class: "java.net.URLConnection", Method: "connect"},
			{Class: "android.accounts.AccountManager", Method: "getAccounts"},
			{Class: "android.app.AlarmManager", Method: "setRepeating"},
		},
	},
	{
		titles: []string{
			"How to login user with account manager",
			"Android oauth login to server",
			"login fails with authentication error",
			"cannot login to my account",
		},
		apis: []APIRef{
			{Class: "android.accounts.AccountManager", Method: "getAuthToken"},
			{Class: "java.net.HttpURLConnection", Method: "getResponseCode"},
		},
	},
	{
		titles: []string{
			"How to register account in app",
			"create account sign up form android",
		},
		apis: []APIRef{
			{Class: "android.accounts.AccountManager", Method: "addAccountExplicitly"},
		},
	},
	{
		titles: []string{
			"How to show notification in android",
			"Notification not showing on lock screen",
		},
		apis: []APIRef{
			{Class: "android.app.NotificationManager", Method: "notify"},
		},
	},
	{
		titles: []string{
			"How to parse json response android",
			"JSONObject getString throws exception",
		},
		apis: []APIRef{
			{Class: "org.json.JSONObject", Method: "getString"},
		},
	},
	{
		titles: []string{
			"How to store settings in shared preferences",
			"Save user preferences android",
		},
		apis: []APIRef{
			{Class: "android.content.SharedPreferences$Editor", Method: "putString"},
			{Class: "android.content.SharedPreferences", Method: "getString"},
		},
	},
	{
		titles: []string{
			"How to insert row into sqlite database",
			"SQLite database is locked error",
			"query sqlite database cursor android",
		},
		apis: []APIRef{
			{Class: "android.database.sqlite.SQLiteDatabase", Method: "insert"},
			{Class: "android.database.sqlite.SQLiteDatabase", Method: "query"},
			{Class: "android.database.sqlite.SQLiteOpenHelper", Method: "getWritableDatabase"},
		},
	},
	{
		titles: []string{
			"SSL certificate error connecting to server",
			"How to trust self signed certificate android",
			"certificate verification failed https",
		},
		apis: []APIRef{
			{Class: "javax.net.ssl.SSLSocket", Method: "startHandshake"},
			{Class: "javax.net.ssl.HttpsURLConnection", Method: "setSSLSocketFactory"},
			{Class: "android.security.KeyChain", Method: "choosePrivateKeyAlias"},
		},
	},
	{
		titles: []string{
			"Socket connection timeout android",
			"How to read data from socket",
			"socket exception when connecting",
		},
		apis: []APIRef{
			{Class: "java.net.Socket", Method: "connect"},
			{Class: "java.net.Socket", Method: "getInputStream"},
			{Class: "java.net.Socket", Method: "setSoTimeout"},
		},
	},
	{
		titles: []string{
			"How to unzip file in android",
			"extract zip archive java",
		},
		apis: []APIRef{
			{Class: "java.util.zip.ZipInputStream", Method: "getNextEntry"},
		},
	},
	{
		titles: []string{
			"How to backup sms messages android",
			"backup and restore app data",
		},
		apis: []APIRef{
			{Class: "android.app.backup.BackupManager", Method: "dataChanged"},
			{Class: "android.content.ContentResolver", Method: "query"},
		},
	},
	{
		titles: []string{
			"Rotate bitmap image android",
			"picture saved upside down flipped",
			"fix image orientation exif",
		},
		apis: []APIRef{
			{Class: "android.media.ExifInterface", Method: "getAttribute"},
			{Class: "android.graphics.Matrix", Method: "postRotate"},
			{Class: "android.graphics.BitmapFactory", Method: "decodeFile"},
		},
	},
	{
		titles: []string{
			"How to open url in browser from app",
			"open link in external browser android",
		},
		apis: []APIRef{
			{Class: "android.app.Activity", Method: "startActivity"},
			{Class: "android.webkit.WebView", Method: "loadUrl"},
		},
	},
	{
		titles: []string{
			"How to load image from url into view",
			"load remote picture efficiently android",
			"images not loading in list view",
		},
		apis: []APIRef{
			{Class: "java.net.URL", Method: "openConnection"},
			{Class: "android.graphics.BitmapFactory", Method: "decodeFile"},
		},
	},
}

// generalTasksExtra is the second tranche of general tasks, covering the
// long tail of review complaints.
var generalTasksExtra = []task{
	{
		titles: []string{
			"How to show progress while loading android",
			"Progress bar stuck at zero",
		},
		apis: []APIRef{
			{Class: "android.widget.ProgressBar", Method: "setProgress"},
		},
	},
	{
		titles: []string{
			"How to place phone call from app",
			"Dial number programmatically android",
			"call contact directly from the app",
		},
		apis: []APIRef{
			{Class: "android.telecom.TelecomManager", Method: "placeCall"},
			{Class: "android.app.Activity", Method: "startActivity"},
		},
	},
	{
		titles: []string{
			"How to encrypt data in android",
			"Cipher doFinal throws BadPaddingException",
			"encrypt message with aes",
		},
		apis: []APIRef{
			{Class: "javax.crypto.Cipher", Method: "init"},
			{Class: "javax.crypto.Cipher", Method: "doFinal"},
		},
	},
	{
		titles: []string{
			"How to parse xml feed android",
			"XmlPullParser for rss feeds",
			"read podcast feed xml",
		},
		apis: []APIRef{
			{Class: "org.xmlpull.v1.XmlPullParser", Method: "next"},
			{Class: "java.net.URL", Method: "openConnection"},
		},
	},
	{
		titles: []string{
			"How to resize bitmap without out of memory",
			"Bitmap createScaledBitmap OutOfMemoryError",
			"load large images without crash",
		},
		apis: []APIRef{
			{Class: "android.graphics.Bitmap", Method: "createScaledBitmap"},
			{Class: "android.graphics.BitmapFactory", Method: "decodeFile"},
		},
	},
	{
		titles: []string{
			"How to update home screen widget android",
			"App widget not refreshing",
		},
		apis: []APIRef{
			{Class: "android.appwidget.AppWidgetManager", Method: "updateAppWidget"},
		},
	},
	{
		titles: []string{
			"How to share content to another app",
			"share text and image via intent chooser",
		},
		apis: []APIRef{
			{Class: "android.content.Intent", Method: "createChooser"},
			{Class: "android.app.Activity", Method: "startActivity"},
		},
	},
	{
		titles: []string{
			"How to keep screen awake during playback",
			"wake lock for long running task",
		},
		apis: []APIRef{
			{Class: "android.os.PowerManager$WakeLock", Method: "acquire"},
			{Class: "android.view.Window", Method: "setFlags"},
		},
	},
	{
		titles: []string{
			"How to run background task with executor",
			"AsyncTask execute in parallel",
			"background work keeps blocking the ui",
		},
		apis: []APIRef{
			{Class: "java.util.concurrent.ExecutorService", Method: "submit"},
			{Class: "android.os.AsyncTask", Method: "execute"},
		},
	},
	{
		titles: []string{
			"How to scan media file into gallery",
			"saved photo not showing in gallery",
		},
		apis: []APIRef{
			{Class: "android.media.MediaScannerConnection", Method: "scanFile"},
			{Class: "java.io.FileOutputStream", Method: "write"},
		},
	},
}

// GenerateCorpus expands the task templates into a Question corpus whose
// snippets are Java-like code exercising the snippet parser.
func GenerateCorpus(catalog *sdk.Catalog) []Question {
	var out []Question
	all := make([]task, 0, len(generalTasks)+len(generalTasksExtra))
	all = append(all, generalTasks...)
	all = append(all, generalTasksExtra...)
	for _, t := range all {
		snippet := renderSnippet(t.apis)
		for _, title := range t.titles {
			out = append(out, Question{Title: title, Snippets: []string{snippet}})
		}
	}
	return out
}

// renderSnippet produces a Java-like code block declaring one object per
// API class and invoking each API on it.
func renderSnippet(apis []APIRef) string {
	var b strings.Builder
	declared := make(map[string]string)
	n := 0
	for _, ref := range apis {
		short := ref.Class
		if i := strings.LastIndexByte(short, '.'); i >= 0 {
			short = short[i+1:]
		}
		short = strings.ReplaceAll(short, "$", "")
		name, ok := declared[short]
		if !ok {
			name = fmt.Sprintf("v%d", n)
			n++
			declared[short] = name
			fmt.Fprintf(&b, "%s %s = new %s();\n", short, name, short)
		}
		fmt.Fprintf(&b, "%s.%s();\n", name, ref.Method)
	}
	return b.String()
}
