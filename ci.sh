#!/bin/sh
# Offline CI gate for ReviewSolver and the only file that holds its steps'
# commands. `./ci.sh` (or `make ci`) runs every step in order;
# `./ci.sh <step>...` runs the named steps only. No step touches the
# network (GOPROXY=off enforces it); any failure exits non-zero.
set -eu
cd "$(dirname "$0")"

export GOPROXY=off
export GOFLAGS=-mod=mod

ALL_STEPS="fmt vet build test perfbench-check race fuzz-smoke snapshot-smoke benchgate bench"

# One temp dir holds the build outputs and artifacts of the snapshot step;
# removed on any exit.
WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT
SNAPAPP="${SNAPAPP:-com.fsck.k9}"

run_step() {
	case "$1" in
	fmt)
		out="$(gofmt -l .)"
		if [ -n "$out" ]; then
			echo "gofmt needed on:"
			echo "$out"
			exit 1
		fi
		;;
	vet) go vet ./... ;;
	build) go build ./... ;;
	test) go test ./... ;;
	perfbench-check)
		# cmd/perfbench is its own module, so the root ./... never compiles
		# it; an API change it depends on would otherwise surface only when
		# the benchmark runs.
		go -C cmd/perfbench vet ./...
		go -C cmd/perfbench test ./...
		;;
	race)
		# The packages whose values are shared across goroutines: snapshots,
		# the app IR's release index and diff memo, the trained classifier,
		# the Q&A index, the telemetry registry and the serving daemon (its
		# chaos suite and TestServeSmoke).
		go test -race ./internal/apk/... ./internal/core/... ./internal/obs/... ./internal/snapfile/... ./internal/wordvec/... ./internal/serve/... ./internal/textclass/... ./internal/qa/...
		;;
	fuzz-smoke)
		# The decoders (snapshot container, snapshot load) return typed
		# errors and never panic; reviewd maps any request body to a typed
		# 4xx, never a 500; the prescreened scan yields exactly what a
		# brute-force dot loop yields; the compiled forest scores arbitrary
		# text exactly as the reference tree walk does; the Q&A posting index
		# ranks arbitrary phrases exactly as the linear scan does. Seed
		# corpora live under */testdata/fuzz/. Minimization is capped at 10
		# runs per input: unbounded, the snapshot-load target spends its
		# whole budget minimizing inputs derived from its 0.8 MB seed image.
		go test -run '^$' -fuzz FuzzOpen -fuzztime 5s -fuzzminimizetime 10x ./internal/snapfile
		go test -run '^$' -fuzz FuzzLoadSnapshotBytes -fuzztime 5s -fuzzminimizetime 10x ./internal/core
		go test -run '^$' -fuzz FuzzServeRequest -fuzztime 5s -fuzzminimizetime 10x ./internal/serve
		go test -run '^$' -fuzz FuzzScan -fuzztime 5s -fuzzminimizetime 10x ./internal/wordvec
		go test -run '^$' -fuzz FuzzClassify -fuzztime 5s -fuzzminimizetime 10x ./internal/textclass
		go test -run '^$' -fuzz FuzzTopAPIs -fuzztime 5s -fuzzminimizetime 10x ./internal/qa
		;;
	snapshot-smoke)
		# snapshotc compiles the same app to identical bytes, and
		# localization served from the .snap matches the direct build.
		go build -o "$WORKDIR/snapshotc" ./cmd/snapshotc
		"$WORKDIR/snapshotc" -app "$SNAPAPP" -o "$WORKDIR/app.snap" -q
		"$WORKDIR/snapshotc" -app "$SNAPAPP" -o "$WORKDIR/again.snap" -q
		cmp "$WORKDIR/app.snap" "$WORKDIR/again.snap"
		go build -o "$WORKDIR/reviewsolver" ./cmd/reviewsolver
		"$WORKDIR/reviewsolver" -app "$SNAPAPP" -review "cannot fetch mail" >"$WORKDIR/direct.out"
		"$WORKDIR/reviewsolver" -snapshot "$WORKDIR/app.snap" -review "cannot fetch mail" >"$WORKDIR/loaded.out"
		diff "$WORKDIR/direct.out" "$WORKDIR/loaded.out"
		;;
	benchgate)
		# Paper tables, kernel scans, telemetry totals, front-end allocs and
		# the snapshot image. (TestFleetObsGolden in the test step pins
		# bench/BENCH_FLEETOBS.json exactly.)
		go run ./cmd/benchgate -dir "${BENCHDIR:-bench}" -tol "${TOL:-0.02}"
		;;
	bench)
		# One iteration of the kernel, end-to-end localization, corpus
		# throughput, classifier and Q&A lookup benchmarks: catches a
		# silently disabled fast path and compile rot in the benchmarks.
		go test -run xxx -bench 'CosineVsDot|MatrixScan|LocalizeReview|CorpusThroughput|ClassifierPredict|BoostedTreesFit|QATopAPIs' -benchtime 1x .
		;;
	*)
		echo "ci.sh: unknown step $1 (steps: $ALL_STEPS)" >&2
		exit 2
		;;
	esac
}

if [ $# -eq 0 ]; then
	# shellcheck disable=SC2086 # word-split the step list
	set -- $ALL_STEPS
fi
for s in "$@"; do
	echo ""
	echo "== $s =="
	run_step "$s"
done

echo ""
echo "CI PASS ($*)"
