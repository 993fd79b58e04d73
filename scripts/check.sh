#!/bin/sh
# check.sh — the full verification gate, run from the repo root (or any
# subdirectory: it cd's to the module root first). Fails fast on the
# first broken step:
#
#   1. gofmt      — no unformatted files
#   2. go vet     — stdlib static checks
#   3. gislint    — the project invariant analyzers (`make lint`; every
#                   finding fails, see DESIGN.md "Static analysis &
#                   invariants")
#   4. go build   — everything compiles
#   5. go test -race ./... — the full suite, which includes the analyzer
#                   fixtures, the race-stress, seeded-chaos and overload
#                   tests (`make lint-fixtures`, `make chaos` and `make
#                   overload` run those subsets on demand) and the
#                   concurrency tests no analyzer can stand in for:
#                   workload TestConcurrentGlobalUpdates, wire
#                   TestTwoTransactionsOneClient, TestCallObservesDeadline
#                   and TestAbandonedTransactionReleasesLock (a lock held
#                   in a server across round trips; DESIGN.md "Wire
#                   connections and transactions")
#   6. gisbench   — the OV1 overload bench and the quick bench as JSON,
#                   schema-validated by scripts/benchjson
#   7. query log  — demo-federation query with -query-log-sample 1,
#                   lines schema-validated by scripts/querylogjson
set -eu

cd "$(dirname "$0")/.."

echo '== gofmt =='
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo '== go vet =='
go vet ./...

echo '== gislint =='
make --no-print-directory lint

echo '== go build =='
go build ./...

echo '== go test -race =='
go test -race ./...

echo '== gisbench -overload =='
go run ./cmd/gisbench -overload -tenants 8 -scale 0.05 -reps 1 -latency 200us -json | go run ./scripts/benchjson

echo '== gisbench -json -quick =='
go run ./cmd/gisbench -json -quick | go run ./scripts/benchjson

echo '== query-log schema =='
# Run a demo-federation query with every statement sampled into the
# structured log, then validate the emitted lines against the
# obs.QueryLogRecord schema (see DESIGN.md "Distributed tracing & plan
# telemetry").
qlog=$(mktemp)
trap 'rm -f "$qlog"' EXIT
go run ./cmd/gisql -demo -query-log "$qlog" -query-log-sample 1 \
    -e "SELECT c.name, SUM(o.amount) FROM customers c JOIN orders o ON c.id = o.cust_id WHERE c.region = 'east' GROUP BY c.name" >/dev/null
go run ./scripts/querylogjson < "$qlog"

echo 'check: all gates passed'
