# ReviewSolver offline CI harness. Every target runs without network
# access; `make ci` is the full gate the driver runs on each PR.

GO      ?= go
BENCHDIR ?= bench
TOL     ?= 0.02

.PHONY: ci ci-fast fmt vet build test perfbench-check race benchgate bench bench-all obs-smoke serve-smoke fleetobs-smoke fuzz-smoke snapshot profile update-baselines clean

ci:
	./ci.sh

# Quick pre-push subset of the gate: no race detector, no benchgate, no
# smokes. Seconds instead of minutes.
ci-fast: fmt vet build test

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# cmd/perfbench is its own module (the root ./... never compiles it): vet
# and test it against this tree so an API change it imports fails here,
# not when the benchmark runs.
perfbench-check:
	$(GO) -C cmd/perfbench vet ./...
	$(GO) -C cmd/perfbench test ./...

race:
	$(GO) test -race ./internal/core/... ./internal/obs/... ./internal/snapfile/... ./internal/wordvec/... ./internal/serve/... ./internal/textclass/... ./internal/qa/...

benchgate:
	$(GO) run ./cmd/benchgate -dir $(BENCHDIR) -tol $(TOL)

update-baselines:
	$(GO) run ./cmd/benchgate -dir $(BENCHDIR) -tol $(TOL) -update

# Kernel benchmark smoke: one iteration of the similarity-kernel micro
# benchmarks, end-to-end localization, corpus throughput, the review
# classifier's training and prediction, and the General Task Q&A lookup.
# Fast enough for CI; catches "kernel path silently disabled" and compile
# rot in the benchmarks.
bench:
	$(GO) test -run xxx -bench 'CosineVsDot|MatrixScan|LocalizeReview|CorpusThroughput|ClassifierPredict|BoostedTreesFit|QATopAPIs' -benchtime 1x .

bench-all:
	$(GO) test -run xxx -bench . -benchtime 1x .

# Telemetry smoke: drain the seeded corpus with tracing on, validate every
# explain trace against the schema (and its byte-determinism across worker
# counts), and scrape the expvar/metrics/health endpoints once.
obs-smoke:
	$(GO) run ./cmd/obssmoke

# Serving-layer smoke: boot an in-process reviewd on a free port, register
# two compiled snapshots over HTTP, drive concurrent traffic (including one
# injected panic), and diff every served response byte-for-byte against a
# direct solver over the same snapshots.
serve-smoke:
	$(GO) run ./cmd/servesmoke

# Fleet-observability smoke: run the deterministic fleet scenario through
# `reviewd -fleetstat` twice and require byte-identical SLO digest
# artifacts (the scenario also backs the exact BENCH_FLEETOBS.json gate).
fleetobs-smoke:
	$(GO) run ./cmd/reviewd -fleetstat /tmp/fleetstat-a.json -q
	$(GO) run ./cmd/reviewd -fleetstat /tmp/fleetstat-b.json -q
	cmp /tmp/fleetstat-a.json /tmp/fleetstat-b.json
	@rm -f /tmp/fleetstat-a.json /tmp/fleetstat-b.json

# Short fuzz runs over the hostile-input surfaces — the snapshot container
# decoder, the full snapshot loader, and the event journal codec, which must
# return typed errors, never panic — over the prescreened scan, which must
# yield exactly what a brute-force dot loop yields, over the review
# classifier, whose compiled forest must score arbitrary text exactly as the
# reference pointer-tree walk does, and over the General Task lookup, whose
# posting index must rank arbitrary phrases exactly as the linear Q&A scan
# does. (The committed seed corpora live under */testdata/fuzz/.)
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzOpen -fuzztime 5s ./internal/snapfile
	$(GO) test -run '^$$' -fuzz FuzzLoadSnapshotBytes -fuzztime 5s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzScan -fuzztime 5s ./internal/wordvec
	$(GO) test -run '^$$' -fuzz FuzzDecodeEvents -fuzztime 5s ./internal/obs
	$(GO) test -run '^$$' -fuzz FuzzClassify -fuzztime 5s ./internal/textclass
	$(GO) test -run '^$$' -fuzz FuzzTopAPIs -fuzztime 5s ./internal/qa

# Compile (and verify) the snapshot of one built-in app. Override with e.g.
#   make snapshot SNAPAPP=org.wordpress.android SNAPOUT=wp.snap
SNAPAPP ?= com.fsck.k9
SNAPOUT ?= $(SNAPAPP).snap
snapshot:
	$(GO) run ./cmd/snapshotc -app $(SNAPAPP) -o $(SNAPOUT) -verify

# Profiling workflow: run the streaming corpus benchmark long enough for a
# useful sample and drop CPU + heap profiles under $(PROFDIR). Inspect with
#   go tool pprof $(PROFDIR)/cpu.out
#   go tool pprof -sample_index=alloc_objects $(PROFDIR)/heap.out
PROFDIR ?= profiles
profile:
	@mkdir -p $(PROFDIR)
	$(GO) test -run xxx -bench 'CorpusThroughput|ParallelLocalizeReview$$|AnalyzeReview' -benchtime 3s \
		-cpuprofile $(PROFDIR)/cpu.out -memprofile $(PROFDIR)/heap.out .
	@echo "profiles written to $(PROFDIR)/cpu.out and $(PROFDIR)/heap.out"

clean:
	$(GO) clean ./...
