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
#   5. go test -race -timeout 100s ./... — the full suite. Its subsets
#                   that a make target runs on demand: the analyzer
#                   fixtures (`make lint-fixtures`), the seeded chaos and
#                   the overload tests (`make chaos`, `make overload`),
#                   the fuzz targets' seed corpora (`make fuzz` fuzzes
#                   each for 10 s), the layout tests (`make layout`), the
#                   allocation ceilings (`make allocs`, with obs
#                   TestNilSpanSetIntFormatsNothing: an untraced span
#                   formats no annotation), the plan
#                   equivalence tests (`make equivalence`) and the frame
#                   ledger (`make frames`). Named by no target: the
#                   statement cache's rule, recheck and return (plan
#                   TestValueFree, TestRebindChoosesTheStrategyAgain;
#                   core TestStatementCacheFollowsTheCatalog,
#                   TestCacheHitIsAStatement,
#                   TestPointShapesShareTheCatalogConcurrently,
#                   TestKeptWritesAgree; exec
#                   TestUnionCloseWaitsForItsFetchers), races only -race
#                   reports, and the concurrency tests no analyzer can
#                   stand in for: workload TestConcurrentGlobalUpdates,
#                   wire TestTwoTransactionsOneClient,
#                   TestCallObservesDeadline,
#                   TestAbandonedTransactionReleasesLock (DESIGN.md "Wire
#                   connections and transactions") and
#                   TestRaceStressScansDuringWrites (DESIGN.md "What a
#                   scan holds"). A hang is how a re-acquired mutex, a
#                   Wait that misses its Done or a lock cycle shows, so
#                   the timeout is part of the gate: well above the
#                   slowest package (workload, 49 s under -race on 2 CPUs
#                   alone, 62 s within this step) instead of Go's ten
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
