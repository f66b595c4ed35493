package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"reviewsolver/internal/serve"
)

// resultMarker opens every LocalizeResult object of a response body; inside
// a JSON string the quote would be escaped, so counting it counts results.
var resultMarker = []byte(`{"review":`)

func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 30 * time.Second,
	}
}

// post sends one JSON body and reads the whole response into buf (a fresh
// buffer when nil). The returned body aliases buf.
func post(ctx context.Context, client *http.Client, url string, body []byte, buf *bytes.Buffer) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return send(client, req, buf)
}

func get(ctx context.Context, client *http.Client, url string, buf *bytes.Buffer) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	return send(client, req, buf)
}

func send(client *http.Client, req *http.Request, buf *bytes.Buffer) (int, []byte, error) {
	if buf == nil {
		buf = new(bytes.Buffer)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, buf.Bytes(), nil
}

// releaseWriter registers new versions of the churn app, alternating a full
// image of its history without its latest release and a delta of the whole
// app against that image.
type releaseWriter struct {
	app     int // corpus index of the churn app
	l       layout
	deltaOK bool
	n       int
	base    string // version of the last full-base image
	latest  string // most recently registered version
	fulls   int
	deltas  int
	last    time.Time // last registration, for the HTTP run's cadence
}

func newReleaseWriter(c *corpus, l layout, deltaOK bool) *releaseWriter {
	return &releaseWriter{app: c.churn[0], l: l, deltaOK: deltaOK}
}

// writerOps register an image under a version of the churn app, and send
// one request pinned to a version.
type writerOps struct {
	register func(version, path string) error
	touch    func(version string) error
}

// step makes the next registration. Before registering a delta it touches
// the base version, which loads the base if it was evicted and makes it the
// most recently used entry: the registry never evicts that entry, so the
// delta's first load finds its base resident.
func (w *releaseWriter) step(ops writerOps) error {
	version := fmt.Sprintf("r%d", w.n+2)
	full := w.n%2 == 0
	w.n++
	path := w.l.baseImage(w.app)
	switch {
	case full:
		w.base = version
		w.fulls++
	case w.deltaOK:
		if err := ops.touch(w.base); err != nil {
			return fmt.Errorf("touch base %s: %w", w.base, err)
		}
		path = w.l.deltaImage(w.app)
		w.deltas++
	default:
		path = w.l.image(w.app)
		w.fulls++
	}
	if err := ops.register(version, path); err != nil {
		return fmt.Errorf("register %s: %w", version, err)
	}
	w.latest = version
	return nil
}

// httpWriterOps are the release writer's operations against reviewd.
func httpWriterOps(ctx context.Context, client *http.Client, srv *server, c *corpus) writerOps {
	app := c.churn[0]
	pkg := c.apps[app].pkg
	check := func(status int, body []byte, err error) error {
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, body)
		}
		return err
	}
	return writerOps{
		register: func(version, path string) error {
			b, err := json.Marshal(serve.RegisterRequest{App: pkg, Version: version, Path: path})
			if err != nil {
				return err
			}
			return check(post(ctx, client, srv.url("/v1/apps"), b, nil))
		},
		touch: func(version string) error {
			b, err := json.Marshal(requestBody(pkg, version, c.inputs[app][0]))
			if err != nil {
				return err
			}
			return check(post(ctx, client, srv.url("/v1/localize"), b, nil))
		},
	}
}

// phaseResult is what one closed-loop phase observed.
type phaseResult struct {
	latMs    []float64 // successful request latencies (recording phases)
	ok       int
	failed   int
	reviews  int // reviews in successful responses
	writes   int // release-writer operations
	writeErr int
	elapsed  time.Duration
	firstErr error
}

func (p *phaseResult) merge(o phaseResult) {
	p.latMs = append(p.latMs, o.latMs...)
	p.ok += o.ok
	p.failed += o.failed
	p.reviews += o.reviews
	p.writes += o.writes
	p.writeErr += o.writeErr
	p.elapsed += o.elapsed
	if p.firstErr == nil {
		p.firstErr = o.firstErr
	}
}

// drive runs closed-loop localize traffic: one goroutine per connection
// sends its stream's next request once the previous reply is fully read,
// until dur has passed. A reply counts as successful when it is a 200 with
// one result per review sent. Connection 0 also runs the release writer.
func drive(ctx context.Context, client *http.Client, srv *server, c *corpus, streams []*stream, dur time.Duration, record bool, wr *releaseWriter) phaseResult {
	url := srv.url("/v1/localize")
	var ops writerOps
	if wr != nil {
		ops = httpWriterOps(ctx, client, srv, c)
	}
	results := make([]phaseResult, len(streams))
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for ci, st := range streams {
		wg.Add(1)
		go func(ci int, st *stream) {
			defer wg.Done()
			res := &results[ci]
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				if ci == 0 && wr != nil && time.Since(wr.last) >= churnEvery {
					wr.last = time.Now()
					res.writes++
					if err := wr.step(ops); err != nil {
						res.writeErr++
						if res.firstErr == nil {
							res.firstErr = err
						}
					}
				}
				r := st.next()
				t0 := time.Now()
				status, body, err := post(ctx, client, url, c.bodies[r.app][r.body], &buf)
				lat := time.Since(t0)
				if err == nil && status == http.StatusOK && bytes.Count(body, resultMarker) == c.w.batch {
					res.ok++
					res.reviews += c.w.batch
					if record {
						res.latMs = append(res.latMs, float64(lat.Nanoseconds())/1e6)
					}
					continue
				}
				res.failed++
				if res.firstErr == nil {
					if err == nil {
						err = fmt.Errorf("%s: status %d, %d results: %.200s", c.apps[r.app].pkg, status, bytes.Count(body, resultMarker), body)
					}
					res.firstErr = err
				}
			}
		}(ci, st)
	}
	wg.Wait()
	var out phaseResult
	for _, r := range results {
		out.merge(r)
	}
	out.elapsed = time.Since(start)
	return out
}

// scrape reads reviewd's /metrics exposition ("type name value" lines).
func scrape(ctx context.Context, client *http.Client, srv *server) (map[string]float64, error) {
	status, body, err := get(ctx, client, srv.url("/metrics"), nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d", status)
	}
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		if len(f) != 3 {
			continue
		}
		if v, err := strconv.ParseFloat(f[2], 64); err == nil {
			out[f[1]] = v
		}
	}
	return out, nil
}

// probeTransport measures GET /healthz round trips on conns connections for
// dur: the HTTP cost a request pays before any serving work.
func probeTransport(ctx context.Context, client *http.Client, srv *server, conns int, dur time.Duration) (rttUs []float64, failed int) {
	url := srv.url("/healthz")
	out := make([][]float64, conns)
	fails := make([]int, conns)
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				t0 := time.Now()
				status, _, err := get(ctx, client, url, &buf)
				if err != nil || status != http.StatusOK {
					fails[ci]++
					continue
				}
				out[ci] = append(out[ci], float64(time.Since(t0).Nanoseconds())/1e3)
			}
		}(ci)
	}
	wg.Wait()
	for ci := range out {
		rttUs = append(rttUs, out[ci]...)
		failed += fails[ci]
	}
	return rttUs, failed
}
