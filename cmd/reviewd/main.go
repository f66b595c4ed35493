// Command reviewd is the ReviewSolver serving daemon: a long-running HTTP
// process that keeps many apps' compiled .snap snapshots resident (up to a
// byte budget, LRU-evicted, lazily loaded on first request) and localizes
// user reviews against them.
//
// Endpoints:
//
//	POST /v1/localize  {"app": "...", "review": "..."}            one review
//	                   {"app": "...", "reviews": [{...}, ...]}    a batch
//	POST /v1/classify  {"review": "..."}                          is it a function error?
//	GET  /v1/apps      registry listing with per-app state
//	POST /v1/apps      {"app","version","path"} register/hot-swap a snapshot
//	GET  /v1/trace/ID  sampled explain trace of a past request (-trace-every)
//	GET  /v1/events    registry lifecycle event journal (-journal)
//	GET  /v1/fleetstat per-app SLO / error-budget digest (-slo)
//	GET  /metrics      plain-text metric exposition (per-app labeled + aggregate)
//	GET  /healthz      liveness
//
// Snapshots are registered at boot with repeated -snapshot flags
// ("app[@version]=path") or at runtime through POST /v1/apps; re-registering
// an app@version hot-swaps it without dropping in-flight requests. A
// snapshot that fails to load (corrupt file, incompatible build) is
// quarantined with exponential re-probe backoff instead of poisoning the
// daemon. Overload sheds with 429 + Retry-After; slow work is cut at the
// per-request deadline with 504; SIGINT/SIGTERM drains gracefully.
//
// Example:
//
//	snapshotc -app com.fsck.k9 -o k9.snap
//	reviewd -addr :8645 -snapshot com.fsck.k9=k9.snap
//	curl -d '{"app":"com.fsck.k9","review":"cannot fetch mail"}' localhost:8645/v1/localize
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"reviewsolver/internal/core"
	"reviewsolver/internal/obs"
	"reviewsolver/internal/serve"
	"reviewsolver/internal/synth"
	"reviewsolver/internal/textclass"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "reviewd:", err)
		os.Exit(1)
	}
}

// snapshotFlags collects repeated -snapshot app[@version]=path registrations.
type snapshotFlags []struct{ app, version, path string }

func (s *snapshotFlags) String() string { return fmt.Sprintf("%d snapshots", len(*s)) }

func (s *snapshotFlags) Set(v string) error {
	key, path, ok := strings.Cut(v, "=")
	if !ok || key == "" || path == "" {
		return fmt.Errorf("want app[@version]=path, got %q", v)
	}
	app, version, hasVer := strings.Cut(key, "@")
	if !hasVer {
		version = "v1"
	}
	if app == "" || version == "" {
		return fmt.Errorf("want app[@version]=path, got %q", v)
	}
	*s = append(*s, struct{ app, version, path string }{app, version, path})
	return nil
}

func run() error {
	var snaps snapshotFlags
	var (
		addr        = flag.String("addr", "127.0.0.1:8645", "listen address (\":0\" picks a free port)")
		maxBytes    = flag.Int64("max-bytes", 0, "resident snapshot byte budget; 0 = unlimited, LRU evicts past it")
		queueDepth  = flag.Int("queue-depth", 64, "per-app waiting line before arrivals shed with 429")
		maxConc     = flag.Int("max-concurrent", 0, "per-app execution slots; 0 = all CPUs")
		timeout     = flag.Duration("timeout", 10*time.Second, "per-request deadline (504 past it); negative disables")
		drain       = flag.Duration("drain", 5*time.Second, "graceful shutdown drain budget")
		poolWorkers = flag.Int("pool-workers", 0, "batch pool workers per snapshot; 0 = all CPUs")
		seed        = flag.Int64("seed", 1, "training seed for the function-error classifier")
		noClassify  = flag.Bool("no-classifier", false, "skip classifier training: every review counts as a function error")
		quiet       = flag.Bool("q", false, "suppress startup logging")

		traceEvery = flag.Int("trace-every", 0, "retain every Nth request's explain trace for /v1/trace/<id>; 0 disables tracing")
		journalCap = flag.Int("journal", 0, "registry lifecycle event journal capacity for /v1/events; 0 disables it")
		sloAvail   = flag.Float64("slo", 0, "availability objective (e.g. 0.999) enabling /v1/fleetstat SLO tracking; 0 disables it")
		sloLatency = flag.Duration("slo-latency", 500*time.Millisecond, "per-request latency objective for the SLO fast-ratio")
	)
	flag.Var(&snaps, "snapshot", "register app[@version]=path at boot (repeatable)")
	flag.Parse()

	met := obs.NewRegistry()
	cfg := serve.Config{
		QueueDepth:     *queueDepth,
		MaxConcurrent:  *maxConc,
		RequestTimeout: *timeout,
		DrainTimeout:   *drain,
		MaxBytes:       *maxBytes,
		PoolWorkers:    *poolWorkers,
		Metrics:        met,

		TraceSampleEvery: *traceEvery,
		TraceSeed:        *seed,
		JournalCapacity:  *journalCap,
	}
	if *sloAvail > 0 {
		cfg.SLO = &obs.SLOConfig{
			Availability:       *sloAvail,
			LatencyObjectiveNs: sloLatency.Nanoseconds(),
		}
	}
	if !*noClassify {
		vec, clf := textclass.TrainOn(synth.TrainingCorpus(*seed),
			func() textclass.Classifier { return textclass.NewBoostedTrees() })
		cfg.LoadOptions = []core.Option{core.WithClassifier(vec, clf)}
		cfg.Classify = func(text string) bool { return clf.Predict(vec.Transform(text)) }
	}

	d := serve.NewDaemon(cfg)
	for _, s := range snaps {
		d.Registry().Register(s.app, s.version, s.path)
	}
	if err := d.Start(*addr); err != nil {
		return err
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "reviewd listening on http://%s (%d snapshots registered)\n",
			d.Addr(), len(snaps))
		for _, s := range snaps {
			fmt.Fprintf(os.Stderr, "  %s@%s ← %s\n", s.app, s.version, s.path)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	if !*quiet {
		fmt.Fprintln(os.Stderr, "reviewd: draining...")
	}
	return d.Close()
}
