package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// fuzzRoutes are the POST endpoints whose bodies come from outside the
// daemon; FuzzServeRequest's route byte picks one.
var fuzzRoutes = [...]string{"/v1/localize", "/v1/classify", "/v1/apps"}

// FuzzServeRequest POSTs arbitrary bytes to /v1/localize, /v1/classify or
// /v1/apps on a fresh daemon serving the sample image as app.sample@v1. A
// malformed body must map to a typed error: the daemon never answers 500,
// and every non-2xx body decodes as an ErrorBody with a non-empty kind.
// Each input gets its own daemon, so a body registered through /v1/apps is
// never loaded and no input depends on an earlier one.
func FuzzServeRequest(f *testing.F) {
	_, img := sampleImage(f)
	path := filepath.Join(f.TempDir(), "sample.snap")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		d := NewDaemon(Config{PoolWorkers: 1, MaxConcurrent: 1})
		defer d.Close()
		d.Registry().Register("app.sample", "v1", path)
		target := fuzzRoutes[int(route)%len(fuzzRoutes)]
		w := httptest.NewRecorder()
		d.mux.ServeHTTP(w, httptest.NewRequest("POST", target, bytes.NewReader(body)))
		if w.Code == http.StatusInternalServerError {
			t.Fatalf("POST %s %q answered 500: %s", target, body, w.Body)
		}
		if w.Code/100 == 2 {
			return
		}
		var eb ErrorBody
		if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Error.Kind == "" {
			t.Fatalf("POST %s %q answered %d with body %q, want an ErrorBody with a kind (decode error %v)",
				target, body, w.Code, w.Body, err)
		}
	})
}
