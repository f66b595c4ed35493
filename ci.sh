#!/bin/sh
# Offline CI gate for ReviewSolver: formatting, vet, build, tests, the
# perfbench module's vet and tests, the shared-snapshot race gate, and the
# benchgate metric-drift check. No step touches the network (GOPROXY=off
# enforces it); any failure exits non-zero.
set -eu
cd "$(dirname "$0")"

export GOPROXY=off
export GOFLAGS=-mod=mod

step() {
	echo ""
	echo "== $* =="
}

step gofmt
out="$(gofmt -l .)"
if [ -n "$out" ]; then
	echo "gofmt needed on:"
	echo "$out"
	exit 1
fi

step "go vet"
go vet ./...

step "go build"
go build ./...

step "go test"
go test ./...

# cmd/perfbench is its own module, so the root ./... above never compiles
# it; an API change it depends on would otherwise surface only when the
# benchmark runs.
step "perfbench module (go vet + go test against this tree)"
go -C cmd/perfbench vet ./...
go -C cmd/perfbench test ./...

step "go test -race ./internal/core/... ./internal/obs/... ./internal/snapfile/... ./internal/wordvec/... ./internal/serve/..."
go test -race ./internal/core/... ./internal/obs/... ./internal/snapfile/... ./internal/wordvec/... ./internal/serve/...

step "fuzz smoke (snapfile decode + snapshot load + event journal codec: typed errors, no panics; prescreened scan == brute force)"
go test -run '^$' -fuzz FuzzOpen -fuzztime 5s ./internal/snapfile
go test -run '^$' -fuzz FuzzLoadSnapshotBytes -fuzztime 5s ./internal/core
go test -run '^$' -fuzz FuzzScan -fuzztime 5s ./internal/wordvec
go test -run '^$' -fuzz FuzzDecodeEvents -fuzztime 5s ./internal/obs

# One temp dir holds the compiled snapshot artifact shared by the
# determinism, benchgate and smoke steps below; removed on any exit.
SNAPDIR="$(mktemp -d)"
trap 'rm -rf "$SNAPDIR"' EXIT
SNAPAPP="${SNAPAPP:-com.fsck.k9}"

step "snapshot determinism (snapshotc compiles the same app to identical bytes)"
go build -o "$SNAPDIR/snapshotc" ./cmd/snapshotc
"$SNAPDIR/snapshotc" -app "$SNAPAPP" -o "$SNAPDIR/app.snap" -verify -q
"$SNAPDIR/snapshotc" -app "$SNAPAPP" -o "$SNAPDIR/again.snap" -q
cmp "$SNAPDIR/app.snap" "$SNAPDIR/again.snap"

step "benchgate (tier-1 table metric drift + kernel scan stats + telemetry totals + front-end allocs + snapshot gate + exact fleetobs gate)"
go run ./cmd/benchgate -dir "${BENCHDIR:-bench}" -tol "${TOL:-0.02}"

step "fleetobs smoke (reviewd -fleetstat artifact is byte-identical across runs)"
go build -o "$SNAPDIR/reviewd" ./cmd/reviewd
"$SNAPDIR/reviewd" -fleetstat "$SNAPDIR/fleetstat.json" -q
"$SNAPDIR/reviewd" -fleetstat "$SNAPDIR/fleetstat2.json" -q
cmp "$SNAPDIR/fleetstat.json" "$SNAPDIR/fleetstat2.json"

step "snapshot smoke (localization served from the .snap matches the direct build)"
go build -o "$SNAPDIR/reviewsolver" ./cmd/reviewsolver
"$SNAPDIR/reviewsolver" -app "$SNAPAPP" -review "cannot fetch mail" >"$SNAPDIR/direct.out"
"$SNAPDIR/reviewsolver" -snapshot "$SNAPDIR/app.snap" -review "cannot fetch mail" >"$SNAPDIR/loaded.out"
diff "$SNAPDIR/direct.out" "$SNAPDIR/loaded.out"

step "obs smoke (explain-trace schema, determinism, debug endpoints)"
go run ./cmd/obssmoke

step "serve smoke (reviewd daemon: registry, concurrent traffic, injected fault, byte-exact responses)"
go run ./cmd/servesmoke

step "bench smoke (kernel benchmarks, 1 iteration)"
go test -run xxx -bench 'CosineVsDot|MatrixScan|LocalizeReview|CorpusThroughput' -benchtime 1x .

echo ""
echo "CI PASS"
