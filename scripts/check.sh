#!/bin/sh
# check.sh — the full verification gate, run from the repo root (or any
# subdirectory: it cd's to the module root first). Fails fast on the
# first broken step, and prints each step's wall time as it ends and, at
# the end, the total, the size of the code it passed (`make loc`) and the
# planner's p90 q-error per operator kind as estimates.golden has it
# (both reported, not gated):
#
#   1. gofmt      — no unformatted files
#   2. go vet     — stdlib static checks
#   3. gislint    — the project invariant analyzers (`make lint`; every
#                   finding fails, see DESIGN.md "Static analysis &
#                   invariants")
#   4. go build   — everything compiles
#   5. go test -race -timeout 100s ./... — the full suite, which includes
#                   the analyzer fixtures, the race-stress, seeded-chaos
#                   and overload tests (`make lint-fixtures`, `make chaos`
#                   and `make overload` run those subsets on demand;
#                   overload is core TestChaosOverload beside the memory
#                   quota's core TestQuotaChargesWhatIsHeld and
#                   TestQuotaErrorIsTyped, admission
#                   TestMemQuotaRefusesTheGrower and exec
#                   TestHoldersGiveBackWhatTheyCharged), the
#                   seed corpora of the fuzz targets (wire FuzzDecoder,
#                   FuzzStream, FuzzServe and FuzzServeWrite, sql FuzzParse, filestore
#                   FuzzScanRecords, docstore FuzzDocCodec, expr
#                   FuzzColumnRange, catalog FuzzToRemote, types
#                   FuzzHashChain and FuzzVector, kvstore FuzzBTree,
#                   relstore FuzzTable;
#                   `make fuzz` fuzzes each for 10 s), the layout tests
#                   (`make layout` runs them on demand: relstore
#                   TestRowBytesPerRow and TestIndexBytesPerRow, kvstore
#                   TestBucketBytesPerRow, docstore
#                   TestDocBytesPerDocument, types TestChunkBytes and
#                   TestRowSlabBytes with its reserved-block cases, exec
#                   TestCollectHeaderBytes, and the kept results carved
#                   from one block when told their count (source.Use):
#                   exec TestKeptOutputIsOneBlock,
#                   TestKeptStoreScanIsOneBlock and
#                   TestKeptEstimateOffTenfold), the allocation ceilings
#                   (`make allocs` runs them verbosely on demand, the
#                   quick loop for a change meant to move
#                   allocs_per_query: sql TestParseAllocations, plan
#                   TestPlanAllocations and
#                   TestPlanAllocsPerAlikeFragment and
#                   TestRebindCopiesOnlyThePath, core
#                   TestStatementAllocations, a first call that misses
#                   the statement cache and a warmed one that hits it,
#                   exec TestKeptOutputIsOneBlock and wire
#                   TestServedSubQueryAllocs, the serving side of a
#                   point sub-query on a warmed connection), the
#                   statement cache's rule and invalidation (plan
#                   TestValueFree, core
#                   TestStatementCacheFollowsTheCatalog and
#                   TestCacheHitIsAStatement, and
#                   TestPointShapesShareTheCatalogConcurrently, two
#                   callers drawing new values on one engine's kept
#                   plans, a race only -race reports), the plan
#                   equivalence tests
#                   (`make equivalence` runs workload TestPlanEquivalence
#                   and TestPlanEquivalenceCases on demand, the quick loop
#                   after a planner change beside `make golden`) and
#                   the concurrency tests no analyzer can stand in for:
#                   workload TestConcurrentGlobalUpdates, wire
#                   TestTwoTransactionsOneClient, TestCallObservesDeadline
#                   and TestAbandonedTransactionReleasesLock (a lock held
#                   in a server across round trips; DESIGN.md "Wire
#                   connections and transactions"), and wire
#                   TestRaceStressScansDuringWrites (scans of every store
#                   read while writes commit; DESIGN.md "What a scan
#                   holds"), and the frame ledger (`make frames` runs it
#                   on demand: workload TestSetUpFrames,
#                   TestGlobalUpdateFrames and TestSubQueryFrames — a
#                   scaled SUM over its 600 rows among them, one msgEnd
#                   in — and wire's tests of a result stream's end). A hang is how a
#                   re-acquired mutex, a Wait that misses its Done or a
#                   lock cycle shows, so the timeout is part of the gate:
#                   well above the slowest package (workload, 49 s
#                   under -race on 2 CPUs alone, 62 s within this step,
#                   since TestPlanEquivalence runs its parameters
#                   stream; 31 s and 49-52 s before) instead of Go's ten
#                   minutes a package
#   6. gisbench   — the OV1 overload bench and the quick bench as JSON,
#                   schema-validated by scripts/benchjson
#   7. examples   — examples/quickstart, hospitals and supplychain each
#                   run to the end and exit 0 (about a second each)
#   8. query log  — demo-federation query with -query-log-sample 1,
#                   lines schema-validated by scripts/querylogjson
set -eu

cd "$(dirname "$0")/.."

# step NAME prints the previous step's wall time and announces the next.
t0=$(date +%s)
tstep=$t0
step() {
    now=$(date +%s)
    [ -z "${cur:-}" ] || echo "-- $cur: $((now - tstep)) s"
    cur=$1
    tstep=$now
    [ -z "$cur" ] || echo "== $cur =="
}

step gofmt
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

step 'go vet'
go vet ./...

step gislint
make --no-print-directory lint

step 'go build'
go build ./...

step 'go test -race'
go test -race -timeout 100s ./...

step 'gisbench -overload'
go run ./cmd/gisbench -overload -tenants 8 -scale 0.05 -reps 1 -latency 200us -json | go run ./scripts/benchjson

step 'gisbench -json -quick'
go run ./cmd/gisbench -json -quick | go run ./scripts/benchjson

step examples
for ex in quickstart hospitals supplychain; do
    go run "./examples/$ex" >/dev/null
done

step 'query-log schema'
# Run a demo-federation query with every statement sampled into the
# structured log, then validate the emitted lines against the
# obs.QueryLogRecord schema (see DESIGN.md "Distributed tracing & plan
# telemetry").
qlog=$(mktemp)
trap 'rm -f "$qlog"' EXIT
go run ./cmd/gisql -demo -query-log "$qlog" -query-log-sample 1 \
    -e "SELECT c.name, SUM(o.amount) FROM customers c JOIN orders o ON c.id = o.cust_id WHERE c.region = 'east' GROUP BY c.name" >/dev/null
go run ./scripts/querylogjson < "$qlog"

step ''
p90=$(awk '!/^#/ && $1 != "operator" && NF == 5 { printf "%s%s %s", sep, $1, $4; sep = ", " }' internal/workload/testdata/estimates.golden)
echo "check: all gates passed in $(($(date +%s) - t0)) s; $(sh scripts/loc.sh | awk 'END { print $1 }') non-test lines of Go (make loc); estimate q-error p90 by operator: $p90 (estimates.golden)"
