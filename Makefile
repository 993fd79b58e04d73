GO ?= go

.PHONY: build test race lint lint-fixtures fmt vet check loc layout allocs golden equivalence chaos overload frames fuzz bench rungs bench-e2e

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

# What the stores hold, in bytes, against the allocator's size classes:
# relstore's rows (at most 48 B a row of the orders table) and its
# indexes, kvstore's buckets (at most 64 B an orders row loaded in key
# order), docstore's documents, and of types the vectors of a full
# chunk (each fills its size class to within one row) and RowSlab's
# chunks and reserved blocks; the row headers exec.Collect keeps a result
# in (at most 1.15 a row when the estimate is right); and the objects a
# kept result costs when the stage that builds it is told how many rows
# it keeps (source.Use: one block, the same at 1 000 rows and 4 000,
# within 2, traced or not), and the bytes when the estimate is ten times
# too many (the block's cap).
layout:
	$(GO) test -count=1 -run 'TestRowBytesPerRow|TestIndexBytesPerRow' -v ./internal/relstore
	$(GO) test -count=1 -run 'TestBucketBytesPerRow' -v ./internal/kvstore
	$(GO) test -count=1 -run 'TestDocBytesPerDocument' -v ./internal/docstore
	$(GO) test -count=1 -run 'TestChunkBytes|TestRowSlabBytes' -v ./internal/types
	$(GO) test -count=1 -run 'TestCollectHeaderBytes|TestKeptOutputIsOneBlock|TestKeptStoreScanIsOneBlock|TestKeptEstimateOffTenfold' -v ./internal/exec

# The quick loop for a change meant to move allocs_per_query, each
# figure printed beside its ceiling: parsing point_remote's statements
# (sql TestParseAllocations), planning the benchmark's shapes
# (plan TestPlanAllocations), at most one object more a fragment that
# maps like the one before it (TestPlanAllocsPerAlikeFragment, and
# TestKeyQueryAllocsPerAlikeFragment for the keys a semijoin ships),
# rebinding a kept plan (plan TestRebindCopiesOnlyThePath: one object a
# node on the path to a parameter), whole statements on a first call,
# which misses the statement cache, and warmed, which hits it (core
# TestStatementAllocations), a kept result carved from one block (exec
# TestKeptOutputIsOneBlock) and the serving side of a point sub-query on
# a warmed connection (wire TestServedSubQueryAllocs,
# TestRebindBuildsTheFilterOnce).
allocs:
	$(GO) test -count=1 -run 'TestParseAllocations' -v ./internal/sql
	$(GO) test -count=1 -run 'TestPlanAllocations|TestPlanAllocsPerAlikeFragment|TestKeyQueryAllocsPerAlikeFragment|TestRebindCopiesOnlyThePath' -v ./internal/plan
	$(GO) test -count=1 -run 'TestStatementAllocations' -v ./internal/core
	$(GO) test -count=1 -run 'TestKeptOutputIsOneBlock' -v ./internal/exec
	$(GO) test -count=1 -run 'TestServedSubQueryAllocs|TestRebindBuildsTheFilterOnce' -v ./internal/wire

# After a change meant to move a plan, an estimate or a parsed tree:
# rewrite the golden files of TestPlansGolden (231 statements under each
# optimizer variant), TestEstimatesGolden (the planner's estimate error
# over the same statements, per operator kind) and TestParsedGolden (the
# printed form or the error of each fuzz seed, plan statement and
# equivalence statement) from what this build produces, then review
# their diffs. A parser change meant to move no tree shows no diff in
# parsed.golden. A change meant to move only how a fragment scan
# prints (its suffix, a pushed constant) moves no other plan line:
#   git diff -U0 internal/workload/testdata/plans.golden | grep '^[-+]' | grep -v FragScan
# prints the two header lines and nothing else — unless two variants of
# a statement stopped or started printing alike, which adds or removes a
# "-- variant" block.
golden:
	$(GO) test ./internal/workload -run 'TestPlansGolden|TestEstimatesGolden|TestParsedGolden' -update

# The quick loop after a planner change, beside `make golden`: every
# seeded equivalence statement (the single-table and two-table stream
# and the stream of three-relation join chains) and every shrunk case
# must return the same rows under each optimizer variant and from each
# wrapper class.
equivalence:
	$(GO) test ./internal/workload -run 'TestPlanEquivalence|TestPlanEquivalenceCases' -count=1

# Seeded fault-injection stress tests: wire, union, semijoin, 2PC
# (see DESIGN.md "Resilience & fault model"). What faults do not cover —
# concurrent global updates, two transactions on one client, a call
# blocked past its deadline — is TestConcurrentGlobalUpdates (workload)
# and TestTwoTransactionsOneClient / TestCallObservesDeadline (wire),
# which run in `make test` and `make race`.
chaos:
	$(GO) test -race -run TestChaos ./...

# Overload robustness: the multi-tenant admission chaos suite (memory
# ceiling, fair shedding, goroutine-leak checks under -race), the memory
# quota's tests (one statement's account: what is held is charged, the
# grower alone is refused with a typed error, every holder gives back)
# plus a quick OV1 overload bench, JSON schema-validated (see DESIGN.md
# "Admission, quotas & backpressure").
overload:
	$(GO) test -race -run 'TestChaosOverload|TestQuota|TestMemQuota|TestHoldersGiveBack' -count=1 ./internal/core ./internal/exec ./internal/admission
	$(GO) run ./cmd/gisbench -overload -tenants 8 -scale 0.05 -reps 1 -latency 200us -json | $(GO) run ./scripts/benchjson

# The frame ledger: what set-up, a global update, a sub-query of 0, 10,
# 256 and 600 rows and a scaled SUM over the 600 cost in client frames
# (4 per dialed source; 12; 1, 1, 2 and 3 in and 1 out; 1 in, the
# msgEnd, and 1 out: the source folds what shipped as 3 frames of rows
# before aggregates pushed through the mapping), then the result
# stream's end under the race detector — the last rows ride in msgEnd, a
# whole msgErr keeps the connection, a traced stream costs the frames an
# untraced one does, and FuzzStream's seed corpus (see DESIGN.md "Wire
# connections and transactions").
frames:
	$(GO) test -count=1 -run 'SetUpFrames|GlobalUpdateFrames|SubQueryFrames' ./internal/workload
	$(GO) test -race -count=1 -run 'LastRowsEnd|EmptyRowsFrame|TracedStreamCosts|UndecodableFooter|FuzzStream' ./internal/wire

# Ten seconds of coverage-guided fuzzing per byte-reader: the wire
# decoder (every message body a peer can send), the client's reader of a
# result stream (FuzzStream: any frame sequence a scripted peer answers
# msgExecute with, over a pipe), the server past the decoder —
# FuzzServe every sub-query that decodes and passes source.Query.Check,
# executed against each kind of store, FuzzServeWrite every insert,
# update and delete that decodes, through Server.write into each — the
# SQL lexer/parser and filestore's record scanner (against encoding/csv,
# whole and in blocks), docstore's document codec (FuzzDocCodec: decode
# of encode is the JSON document, and each compiled path reads what a
# lookup in its maps reads) — and four that are not byte-readers: expr's
# range algebra, against EvalBool of the conjunction it folds
# (FuzzColumnRange), catalog's one inverse of a mapped column, against
# what every candidate remote value reads as (FuzzToRemote), types'
# hash chain, whose link, unlink, grow and probe operations are decoded
# from bytes and held to a map of each hash's positions (FuzzHashChain),
# types' column vector, whose appends, sets, clones, inserts and removes
# are decoded from bytes and held to a []Value model bit for bit
# (FuzzVector), and kvstore's B+-tree, whose puts, deletes, lookups,
# views and range scans are held to a sorted slice, each view to the
# slice as it stood when the view was taken (FuzzBTree), and relstore's
# table, whose inserts, key and non-key updates, deletes and aborted
# transactions are held to a []Row model, each scan and index probe to
# the model as it stood when it was opened (FuzzTable). Their seed
# corpora run as ordinary tests under `go test ./...`; a crash found here
# lands in the package's testdata/fuzz and fails from then on.
fuzz:
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzDecoder -fuzztime 10s
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzStream -fuzztime 10s
	$(GO) test ./internal/wire -run '^$$' -fuzz 'FuzzServe$$' -fuzztime 10s
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzServeWrite -fuzztime 10s
	$(GO) test ./internal/sql -run '^$$' -fuzz FuzzParse -fuzztime 10s
	$(GO) test ./internal/filestore -run '^$$' -fuzz FuzzScanRecords -fuzztime 10s
	$(GO) test ./internal/docstore -run '^$$' -fuzz FuzzDocCodec -fuzztime 10s
	$(GO) test ./internal/expr -run '^$$' -fuzz FuzzColumnRange -fuzztime 10s
	$(GO) test ./internal/catalog -run '^$$' -fuzz FuzzToRemote -fuzztime 10s
	$(GO) test ./internal/types -run '^$$' -fuzz FuzzHashChain -fuzztime 10s
	$(GO) test ./internal/types -run '^$$' -fuzz FuzzVector -fuzztime 10s
	$(GO) test ./internal/kvstore -run '^$$' -fuzz FuzzBTree -fuzztime 10s
	$(GO) test ./internal/relstore -run '^$$' -fuzz FuzzTable -fuzztime 10s

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
