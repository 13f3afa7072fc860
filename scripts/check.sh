#!/bin/sh
# check.sh — the repo's fast verification gate:
#   go vet over everything, the full test suite, a race-detector pass over
#   the packages with parallel or concurrently-observed executor paths
#   (ra, engine, graphsql), an API-hygiene grep gate, and the chaos and
#   bench gates.
set -eu
cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== api hygiene (no deprecated session API outside graphsql)"
# The context-first graphsql API replaced these. QueryContext is not
# gated: database/sql legitimately defines it for driver conformance.
if grep -rn 'QueryWithTrace\|RunContext\|\.Eng\b' \
    cmd examples graphsql/driver 2>/dev/null; then
  echo "check: deprecated graphsql API (QueryWithTrace/RunContext/.Eng) used outside graphsql/" >&2
  exit 1
fi

echo "== go test ./..."
go test ./...

echo "== go test -race (parallel executor + concurrent-session packages)"
go test -race ./internal/relation/... ./internal/ra/... ./internal/engine/... \
    ./internal/catalog/... ./internal/withplus/... ./internal/server/... \
    ./internal/sql/... ./graphsql ./graphsql/client

echo "== delta smoke (frontier vs full differential + fallback proofs)"
go test ./internal/withplus -run 'DeltaVsFull|FallsBack|FrontierMode|FrontierReason' -count=1
go test ./internal/withplus -run=NONE -fuzz FuzzDeltaVsFull -fuzztime 5s

echo "== csr smoke (csr vs hash differential + snapshot pinning)"
go test ./internal/algos -run 'CSRVsHash' -count=1
go test ./internal/catalog -run 'CSR' -count=1
go test ./internal/withplus -run=NONE -fuzz FuzzCSRVsHash -fuzztime 5s

echo "== vector smoke (vector vs row differentials + kernel bench + tiny A/B)"
go test ./internal/sql -run 'VecRowStatementParity|VecCompileAggs' -count=1
go test ./internal/algos -run 'VectorVsRow' -count=1
go test ./internal/sql -run=NONE -fuzz FuzzVectorVsRow -fuzztime 5s
go test ./internal/ra -run=NONE -bench 'BenchmarkSelectVectorized|BenchmarkGroupByVectorized' -benchtime 1x
# One end-to-end run of the experiment CLI (both variants); checksum and
# speedup gating happens in the bench gate below.
go run ./cmd/bench -exp vector > /dev/null

echo "== wcoj smoke (multiway vs binary differentials + chooser + operator)"
go test ./internal/ra -run 'WCOJ' -count=1
go test ./internal/sql -run 'WCOJDifferential|WCOJExplainAnalyze|ChooseWCOJ' -count=1
go test ./internal/sql -run=NONE -fuzz FuzzWCOJVsBinary -fuzztime 5s
# One end-to-end run of the experiment CLI (both variants); count,
# checksum, and speedup gating happens in the bench gate below.
go run ./cmd/bench -exp motif > /dev/null

echo "== server protocol fuzz smoke"
go test ./internal/server -run=NONE -fuzz FuzzServerProto -fuzztime 5s

echo "== match smoke (MATCH differential + explain goldens + parser fuzz)"
go test ./graphsql -run 'MatchDifferential|MatchAnchoredPushdown|MatchExplainAnalyze|GraphHandleMatch' -count=1
go test ./internal/sql -run=NONE -fuzz FuzzMatchParser -fuzztime 5s

echo "== chaos gate (fault sweep, recovery, cancellation, fuzz smoke)"
./scripts/chaos.sh

echo "== bench gate (perf baseline + observability overhead + delta/csr/vector/motif/concurrent A/B)"
go run ./cmd/bench -gate

echo "check: OK"
