GO ?= go

.PHONY: build test race lint lint-fixtures fmt vet check loc golden chaos overload fuzz bench rungs bench-e2e

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Project invariant analyzers (stdlib-only driver; see DESIGN.md). Every
# finding fails: there is no baseline and no warning level, so this one
# run is the gate.
lint:
	$(GO) run ./cmd/gislint ./...

# Assert every analyzer still fires on its fixture package (guards
# against an analyzer silently going blind), plus the suppression,
# call-graph and summary unit tests. `go test ./...` runs these too; the
# target is the quick loop while editing an analyzer.
lint-fixtures:
	$(GO) test ./internal/lint -run 'TestFixtures|TestSuppressions|TestSummary|TestCallGraph' -count=1

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

# The full gate: gofmt, vet, gislint, build, race-enabled tests.
check:
	sh scripts/check.sh

# The non-test lines of Go a simplicity PR quotes, per package and in
# total: *.go outside _test.go files, bench/ and testdata/. The second
# column counts the row iterators among them (types with a
# `Next() (types.Row, error)` method).
loc:
	@sh scripts/loc.sh

# After a change meant to move a plan: rewrite the golden file of
# TestPlansGolden (230 statements under each optimizer variant) from the
# plans this build produces, then review its diff. A change meant to
# move only how a fragment scan prints (its suffix, a pushed constant)
# moves no other line:
#   git diff -U0 internal/workload/testdata/plans.golden | grep '^[-+]' | grep -v FragScan
# prints the two header lines and nothing else — unless two variants of
# a statement stopped or started printing alike, which adds or removes a
# "-- variant" block.
golden:
	$(GO) test ./internal/workload -run TestPlansGolden -update

# Seeded fault-injection stress tests: wire, union, semijoin, 2PC
# (see DESIGN.md "Resilience & fault model"). What faults do not cover —
# concurrent global updates, two transactions on one client, a call
# blocked past its deadline — is TestConcurrentGlobalUpdates (workload)
# and TestTwoTransactionsOneClient / TestCallObservesDeadline (wire),
# which run in `make test` and `make race`.
chaos:
	$(GO) test -race -run TestChaos ./...

# Overload robustness: the multi-tenant admission chaos suite (memory
# ceiling, fair shedding, goroutine-leak checks under -race) plus a
# quick OV1 overload bench, JSON schema-validated (see DESIGN.md
# "Admission, quotas & backpressure").
overload:
	$(GO) test -race -run TestChaosOverload -count=1 ./internal/core
	$(GO) run ./cmd/gisbench -overload -tenants 8 -scale 0.05 -reps 1 -latency 200us -json | $(GO) run ./scripts/benchjson

# Ten seconds of coverage-guided fuzzing per byte-reader: the wire
# decoder (every message body a peer can send), the client's reader of a
# result stream (FuzzStream: any frame sequence a scripted peer answers
# msgExecute with, over a pipe), the server past the decoder —
# FuzzServe every sub-query that decodes and passes source.Query.Check,
# executed against each kind of store, FuzzServeWrite every insert,
# update and delete that decodes, through Server.write into each — the
# SQL lexer/parser and filestore's record scanner (against encoding/csv,
# whole and in blocks) — and the one reader of constraints that is not a
# byte-reader, expr's range algebra, against EvalBool of the conjunction
# it folds (FuzzColumnRange). Their seed corpora run as
# ordinary tests under `go test ./...`; a crash found here lands in the
# package's testdata/fuzz and fails from then on.
fuzz:
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzDecoder -fuzztime 10s
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzStream -fuzztime 10s
	$(GO) test ./internal/wire -run '^$$' -fuzz 'FuzzServe$$' -fuzztime 10s
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzServeWrite -fuzztime 10s
	$(GO) test ./internal/sql -run '^$$' -fuzz FuzzParse -fuzztime 10s
	$(GO) test ./internal/filestore -run '^$$' -fuzz FuzzScanRecords -fuzztime 10s
	$(GO) test ./internal/expr -run '^$$' -fuzz FuzzColumnRange -fuzztime 10s

# Both benchmark harnesses: the per-layer rungs, then the repository
# benchmark. The T1-F9 experiment shapes are `go run ./cmd/gisbench`.
bench: rungs bench-e2e

# Every per-layer rung next to the code at once. Read B/op and
# allocs/op: ns/op is not repeatable on a shared machine.
rungs:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/...

# The repository benchmark (BENCHMARK.json, bench/README.md): all five
# workloads once, each result appended to bench.jsonl. Two such files
# are judged with `go run ./bench -compare a.jsonl b.jsonl`.
bench-e2e:
	$(GO) run ./bench -seed 1 -out bench.jsonl
