# ReviewSolver offline CI harness. Every target runs without network
# access; `make ci` is the full gate. The CI steps and their commands live
# only in ci.sh; run one step alone with `./ci.sh <step>`.

BENCHDIR ?= bench

.PHONY: ci ci-fast bench-all snapshot profile update-baselines clean

ci:
	./ci.sh

# Quick pre-push subset of the gate: no race detector, no benchgate, no
# smokes. Seconds instead of minutes.
ci-fast:
	./ci.sh fmt vet build test

# Rewrites the benchgate baselines. bench/BENCH_FLEETOBS.json is not one:
#   go test -run TestFleetObsGolden ./internal/serve -update
update-baselines:
	go run ./cmd/benchgate -dir $(BENCHDIR) -update

bench-all:
	go test -run xxx -bench . -benchtime 1x .

# Compile the snapshot of one built-in app. Override with e.g.
#   make snapshot SNAPAPP=org.wordpress.android SNAPOUT=wp.snap
SNAPAPP ?= com.fsck.k9
SNAPOUT ?= $(SNAPAPP).snap
snapshot:
	go run ./cmd/snapshotc -app $(SNAPAPP) -o $(SNAPOUT)

# Profiling workflow: run the streaming corpus benchmark long enough for a
# useful sample and drop CPU + heap profiles under $(PROFDIR). Inspect with
#   go tool pprof $(PROFDIR)/cpu.out
#   go tool pprof -sample_index=alloc_objects $(PROFDIR)/heap.out
PROFDIR ?= profiles
profile:
	@mkdir -p $(PROFDIR)
	go test -run xxx -bench 'CorpusThroughput|LocalizeReviewEndToEnd$$|AnalyzeReview' -benchtime 3s \
		-cpuprofile $(PROFDIR)/cpu.out -memprofile $(PROFDIR)/heap.out .
	@echo "profiles written to $(PROFDIR)/cpu.out and $(PROFDIR)/heap.out"

clean:
	go clean ./...
