package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"reviewsolver/internal/apk"
	"reviewsolver/internal/serve"
	"reviewsolver/internal/synth"
)

// batchSize is the number of consecutive reviews in one triage_batch request.
const batchSize = 64

// zipfS is the exponent of the app-popularity distribution.
const zipfS = 1.1

// corpusSeed generates every workload's apps, review corpora and popularity
// order; -seed draws only the request streams over them (the package doc
// says why).
const corpusSeed = 1

// workload is one production-shaped traffic mix against a fresh reviewd.
type workload struct {
	name string
	// conns is the number of closed-loop connections (capped at nproc).
	conns int
	// batch is the reviews per request; 1 means single-review requests.
	batch int
	// maxBytes is reviewd's -max-bytes budget; 0 leaves it unlimited.
	maxBytes int64
	// churn enables the release writer on connection 0: a new version of
	// the most popular app every churnEvery in the HTTP run and every
	// churnRequests requests in the traced replay.
	churn bool
	apps  func(seed int64) []*synth.AppData
	// pad is the synth.InflateApp copies for the app at a popularity rank.
	pad func(rank int) int
}

const (
	churnEvery    = 500 * time.Millisecond
	churnRequests = 250
)

var workloads = []workload{
	{
		name:  "interactive",
		conns: 2, batch: 1,
		apps: synth.GenerateTable6, pad: func(int) int { return 0 },
	},
	{
		name:  "triage_batch",
		conns: 1, batch: batchSize,
		apps: synth.GenerateTable6, pad: func(int) int { return 0 },
	},
	{
		name:  "large_apps",
		conns: 2, batch: 1,
		apps: largeApps, pad: func(int) int { return 16 },
	},
	{
		name:  "fleet_churn",
		conns: 2, batch: 1,
		maxBytes: 40 << 20, churn: true,
		apps: fleetApps,
		// Padding by popularity rank mixes small and large images among
		// popular and rare apps alike.
		pad: func(rank int) int { return (rank % 4) * 5 },
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// benchApp is one served app: its IR and the review corpus requests draw from.
type benchApp struct {
	pkg     string
	app     *apk.App
	reviews []synth.Review
}

// largeAppPackages are the multi-release Table 6 apps padded for large_apps.
var largeAppPackages = map[string]bool{
	"org.mariotaku.twidere":        true,
	"org.thoughtcrime.securesms":   true,
	"com.fsck.k9":                  true,
	"com.battlelancer.seriesguide": true,
	"org.wordpress.android":        true,
	"cgeo.geocaching":              true,
}

func largeApps(seed int64) []*synth.AppData {
	var out []*synth.AppData
	for _, d := range synth.GenerateTable6(seed) {
		if largeAppPackages[d.Info.Package] {
			out = append(out, d)
		}
	}
	return out
}

func fleetApps(seed int64) []*synth.AppData {
	return append(synth.GenerateTable6(seed), synth.GenerateTable14(seed)...)
}

// request is one draw of a stream: an app and a body index (a review for
// single-review workloads, a batch chunk for triage_batch).
type request struct {
	app, body int
}

// stream is one connection's deterministic request sequence.
type stream struct {
	rng   *rand.Rand
	zipf  *rand.Zipf
	order []int // popularity rank -> app index
	sizes []int // bodies per app
}

// Stream phases, mixed into the stream seed.
const (
	phaseMeasure = 1
	phaseWarmup  = 2
)

// newStream derives connection conn's stream for a phase from the seed.
// Every stream shares the corpus's popularity order.
func newStream(seed int64, conn, phase int, order, sizes []int) *stream {
	rng := rand.New(rand.NewSource(mix(seed, int64(conn), int64(phase))))
	var zipf *rand.Zipf
	if len(order) > 1 {
		zipf = rand.NewZipf(rng, zipfS, 1, uint64(len(order)-1))
	}
	return &stream{rng: rng, zipf: zipf, order: order, sizes: sizes}
}

func (s *stream) next() request {
	rank := 0
	if s.zipf != nil {
		rank = int(s.zipf.Uint64())
	}
	app := s.order[rank]
	return request{app: app, body: s.rng.Intn(s.sizes[app])}
}

// popularity is the seeded popularity order of n apps (rank -> app index).
func popularity(seed int64, n int) []int {
	return rand.New(rand.NewSource(mix(seed, -1, 0))).Perm(n)
}

// mix folds stream coordinates into one seed (splitmix64 finalizer).
func mix(vals ...int64) int64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h ^= uint64(v)
		h += 0x9e3779b97f4a7c15
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return int64(h >> 1)
}

// corpus holds a workload's apps and every request body, encoded up front so
// the timed window does no JSON encoding.
type corpus struct {
	w      workload
	apps   []benchApp
	order  []int
	bodies [][][]byte // app -> body index -> encoded serve.LocalizeRequest
	// inputs[app][body] are the reviews behind each body.
	inputs [][][]synth.Review
	// churn holds the app the release writer re-registers, when the
	// workload churns.
	churn []int
}

func newCorpus(w workload) (*corpus, error) {
	data := w.apps(corpusSeed)
	c := &corpus{w: w, order: popularity(corpusSeed, len(data))}
	if w.churn {
		// The writer re-registers the most popular app, so it needs a
		// release history. Popularity also keeps its entry far from least
		// recently used: a delta entry evicted after its base cannot load
		// again. Under fleet_churn's eviction rate even the second most
		// popular app's entry is evicted every few seconds.
		for j := range c.order {
			if len(data[c.order[j]].App.Releases) > 1 {
				c.order[0], c.order[j] = c.order[j], c.order[0]
				break
			}
		}
		c.churn = []int{c.order[0]}
	}
	c.apps = make([]benchApp, len(data))
	for rank, i := range c.order {
		d := data[i]
		c.apps[i] = benchApp{pkg: d.Info.Package, app: synth.InflateApp(d.App, w.pad(rank)), reviews: d.Reviews}
	}
	for _, a := range c.apps {
		if len(a.reviews) == 0 {
			return nil, fmt.Errorf("app %s has no reviews", a.pkg)
		}
		var groups [][]synth.Review
		if w.batch == 1 {
			for _, rv := range a.reviews {
				groups = append(groups, []synth.Review{rv})
			}
		} else {
			groups = chunks(a.reviews, w.batch)
		}
		bodies := make([][]byte, len(groups))
		for i, g := range groups {
			b, err := json.Marshal(requestBody(a.pkg, "", g))
			if err != nil {
				return nil, err
			}
			bodies[i] = b
		}
		c.bodies = append(c.bodies, bodies)
		c.inputs = append(c.inputs, groups)
	}
	return c, nil
}

// chunks splits reviews into consecutive groups of n starting at multiples
// of n; the last group wraps around so every group has exactly n reviews.
func chunks(reviews []synth.Review, n int) [][]synth.Review {
	var out [][]synth.Review
	for start := 0; start < len(reviews); start += n {
		g := make([]synth.Review, n)
		for i := range g {
			g[i] = reviews[(start+i)%len(reviews)]
		}
		out = append(out, g)
	}
	return out
}

// requestBody is the /v1/localize body for one review or a batch.
func requestBody(pkg, version string, reviews []synth.Review) serve.LocalizeRequest {
	req := serve.LocalizeRequest{App: pkg, Version: version}
	if len(reviews) == 1 {
		req.Review = reviews[0].Text
		req.PublishedAt = reviews[0].PublishedAt.Format(time.RFC3339)
		return req
	}
	for _, rv := range reviews {
		req.Reviews = append(req.Reviews, serve.BatchReview{
			Review: rv.Text, PublishedAt: rv.PublishedAt.Format(time.RFC3339),
		})
	}
	return req
}

func (c *corpus) sizes() []int {
	out := make([]int, len(c.bodies))
	for i, b := range c.bodies {
		out[i] = len(b)
	}
	return out
}

func (c *corpus) stream(seed int64, conn, phase int) *stream {
	return newStream(seed, conn, phase, c.order, c.sizes())
}
