package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"syscall"
	"time"

	"reviewsolver/internal/apk"
	"reviewsolver/internal/core"
	"reviewsolver/internal/serve"
	"reviewsolver/internal/synth"
	"reviewsolver/internal/textclass"
)

// verifyRequests is how many requests of connection 0's stream are checked
// byte for byte before each timed window.
const verifyRequests = 256

// classifierOption trains the function-error classifier exactly as reviewd
// does at boot with its default -seed 1.
func classifierOption() core.Option {
	vec, clf := textclass.TrainOn(synth.TrainingCorpus(1),
		func() textclass.Classifier { return textclass.NewBoostedTrees() })
	return core.WithClassifier(vec, clf)
}

// trainInBackground trains the verifier's classifier on a thread at nice
// 19, so it takes only CPU time nothing else wants.
func trainInBackground() <-chan core.Option {
	out := make(chan core.Option, 1)
	go func() {
		runtime.LockOSThread() // never unlocked: the niced thread exits with the goroutine
		_ = syscall.Setpriority(syscall.PRIO_PROCESS, syscall.Gettid(), 19)
		out <- classifierOption()
	}()
	return out
}

// direct is a solver loaded straight from a compiled image.
type direct struct {
	solver *core.Solver
	app    *apk.App
}

func loadDirect(path string, opts ...core.Option) (direct, error) {
	img, err := os.ReadFile(path)
	if err != nil {
		return direct{}, err
	}
	snap, app, err := core.LoadSnapshotBytes(img, opts...)
	if err != nil {
		return direct{}, fmt.Errorf("load %s: %w", path, err)
	}
	return direct{solver: core.NewWithSnapshot(snap), app: app}, nil
}

// verifier computes the exact response bytes reviewd must serve, with a
// direct solver over the same image the app's latest version serves.
type verifier struct {
	c       *corpus
	opt     core.Option
	byPath  map[string]direct
	version []string // app -> latest registered version
	image   []string // app -> image whose content that version serves
}

func newVerifier(c *corpus, l layout, opt core.Option) *verifier {
	v := &verifier{c: c, opt: opt, byPath: map[string]direct{}}
	for i := range c.apps {
		v.version = append(v.version, "v1")
		v.image = append(v.image, l.image(i))
	}
	return v
}

// follow records the writer's registrations: a delta image serves the whole
// app, exactly as the app's full image does.
func (v *verifier) follow(wr *releaseWriter, l layout) {
	v.version[wr.app] = wr.latest
	v.image[wr.app] = l.image(wr.app)
	if wr.latest == wr.base {
		v.image[wr.app] = l.baseImage(wr.app)
	}
}

func (v *verifier) expected(r request) ([]byte, error) {
	d, ok := v.byPath[v.image[r.app]]
	if !ok {
		var err error
		if d, err = loadDirect(v.image[r.app], v.opt); err != nil {
			return nil, err
		}
		v.byPath[v.image[r.app]] = d
	}
	resp := serve.LocalizeResponse{App: v.c.apps[r.app].pkg, Version: v.version[r.app]}
	for _, rv := range v.c.inputs[r.app][r.body] {
		when, err := roundTripTime(rv.PublishedAt)
		if err != nil {
			return nil, err
		}
		resp.Results = append(resp.Results, serve.ResultToJSON(rv.Text, d.solver.LocalizeReview(d.app, rv.Text, when)))
	}
	b, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// roundTripTime is the publication time as reviewd sees it after the
// RFC 3339 encoding of the request body.
func roundTripTime(t time.Time) (time.Time, error) {
	return time.Parse(time.RFC3339, t.Format(time.RFC3339))
}

// verify sends the first n requests of st one at a time and compares each
// reply with the direct solver's bytes. It returns the mismatch count and
// the first mismatch.
func verify(ctx context.Context, client *http.Client, srv *server, v *verifier, st *stream, n int) (int, error) {
	var first error
	bad := 0
	for i := 0; i < n; i++ {
		r := st.next()
		want, err := v.expected(r)
		if err != nil {
			return bad, err
		}
		status, got, err := post(ctx, client, srv.url("/v1/localize"), v.c.bodies[r.app][r.body], nil)
		if err == nil && (status != http.StatusOK || !bytes.Equal(got, want)) {
			err = fmt.Errorf("request %d (%s): status %d, served\n  %.300s\nwant\n  %.300s", i, v.c.apps[r.app].pkg, status, got, want)
		}
		if err != nil {
			bad++
			if first == nil {
				first = err
			}
		}
	}
	return bad, first
}
