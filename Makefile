GO ?= go

.PHONY: build test race lint lint-ratchet lint-fixtures lint-concurrency lint-deadlock lint-stats fmt vet check chaos overload bench bench-e2e

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Project invariant analyzers (stdlib-only driver; see DESIGN.md).
# Baseline-aware: known perf-lint findings snapshotted in
# lint.baseline.json are absorbed, anything new fails. After fixing
# findings, shrink the snapshot with
#   go run ./cmd/gislint -baseline lint.baseline.json -update-baseline ./...
# and commit the smaller file — the ratchet only turns one way.
lint: lint-ratchet

lint-ratchet:
	$(GO) run ./cmd/gislint -baseline lint.baseline.json ./...

# Assert every analyzer still fires on its fixture package (guards
# against an analyzer silently going blind). Covers the interprocedural
# fixtures, the sqlship/goleak suites, the concurrency-safety suites
# (lockguard/atomicmix/wglifecycle/chanmisuse), the deadlock suites
# (lockorder/selfdeadlock/blockcycle, plus the TestDeadlock* runtime
# confirmation), the hot-path perf fixtures, and the
# hotness/baseline/changed-mode unit tests; any unexpected-finding diff
# is a hard failure.
lint-fixtures:
	$(GO) test ./internal/lint -run 'TestFixtures|TestSuppressions|TestSummary|TestCallGraph|TestHotness|TestBaseline|TestLoadBaseline|TestChanged|TestDeadlock' -count=1

# Concurrency-safety analyzers alone, at their native error severity
# (no baseline: a lock-protocol finding is a bug, not ratcheted debt).
lint-concurrency:
	$(GO) run ./cmd/gislint -only lockguard,atomicmix,wglifecycle,chanmisuse ./...

# Deadlock analyzers alone, at their native error severity (no
# baseline: a lock-order cycle, self-deadlock, or lock-wait cycle is a
# hang waiting for its interleaving, never ratcheted debt). The
# module-wide lock-order graph itself is inspectable with
#   go run ./cmd/gislint -dot lockorder ./...
lint-deadlock:
	$(GO) run ./cmd/gislint -only lockorder,selfdeadlock,blockcycle ./...

# Findings-by-analyzer counts plus call-graph/SCC dimensions, the
# hot-set census, and the guard-model census (guardable structs, data
# fields, accesses, inferred guarded fields) over the whole module
# (one run is recorded in EXPERIMENTS.md).
lint-stats:
	$(GO) run ./cmd/gislint -stats ./...

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

# The full gate: gofmt, vet, gislint, build, race-enabled tests.
check:
	sh scripts/check.sh

# Seeded fault-injection stress tests: wire, union, bind-join, 2PC
# (see DESIGN.md "Resilience & fault model").
chaos:
	$(GO) test -race -run TestChaos ./...

# Overload robustness: the multi-tenant admission chaos suite (memory
# ceiling, fair shedding, goroutine-leak checks under -race) plus a
# quick OV1 overload bench, JSON schema-validated (see DESIGN.md
# "Admission, quotas & backpressure").
overload:
	$(GO) test -race -run TestChaosOverload -count=1 ./internal/core
	$(GO) run ./cmd/gisbench -overload -tenants 8 -scale 0.05 -reps 1 -latency 200us -json | $(GO) run ./scripts/benchjson

bench:
	$(GO) test -bench=. -benchmem

# The repository benchmark (BENCHMARK.json, bench/README.md): all five
# workloads once, each result appended to bench.jsonl. Two such files
# are judged with `go run ./bench -compare a.jsonl b.jsonl`.
bench-e2e:
	$(GO) run ./bench -seed 1 -out bench.jsonl
