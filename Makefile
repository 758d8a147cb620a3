# Tier-1 gate: everything CI runs, in order. `make ci` must pass before
# merging.

GO ?= go

# Per-target budget for the fuzz smoke pass; bump for a real fuzzing session
# (e.g. `make fuzz-smoke FUZZTIME=10m`).
FUZZTIME ?= 10s

# Repo-wide statement-coverage floor for `make cover`. Set just under the
# measured baseline (80.8%) so genuine regressions fail while scheduler
# noise does not. Raise it when coverage rises; never lower it to merge.
COVER_FLOOR ?= 80.0

.PHONY: ci lint lint-allows vet build bench-compile test test-determinism test-scenarios race-monitor race-learn race-ledger race-par bench-obs bench bench-overhead bench-step-smoke obs-smoke fuzz-smoke cover

ci: lint vet build bench-compile test test-determinism test-scenarios race-monitor race-learn race-ledger race-par bench-obs bench-overhead bench-step-smoke obs-smoke fuzz-smoke cover

# Formatting gate, then the five repo-specific invariant analyzers
# (detrange, rngdiscipline, wallclock, hotpathalloc, globalstate):
# compile-time proof of the determinism, RNG, clock, hot-path and
# no-global-state contracts, run ahead of go vet so contract breaks
# surface before generic diagnostics. gofmt comes from the toolchain
# $(GO) selects; the gate fails if gofmt itself fails, on any file it
# would change, and on any unsuppressed diagnostic.
# odrl-vet carries its own go/parser+go/types driver because this
# container cannot add golang.org/x/tools; if that dependency ever
# becomes available, the analyzers port to a multichecker and this target
# becomes `go vet -vettool=$$(which odrl-vet) ./...` unchanged.
lint:
	@unformatted=$$("$$($(GO) env GOROOT)/bin/gofmt" -l .) || exit 1; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists files that need formatting:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/odrl-vet ./...

# Audit ledger: every //odrl:allow suppression in the tree with its
# mandatory reason, so waivers stay reviewable.
lint-allows:
	$(GO) run ./cmd/odrl-vet -allows ./...

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# The benchmark harness (benchmark/) is a nested module that root
# `go build/test ./...` skips; build, vet and test it so a change to the
# sim or obs API it calls, or to what its fidelity and self-time tests
# check, fails CI instead of the next benchmark run.
bench-compile:
	cd benchmark && $(GO) build -o /dev/null ./... && $(GO) vet ./... && $(GO) test ./...

# Shuffled order, so a test whose result depends on an earlier test's
# package state fails; Go prints the seed, and -shuffle=N replays it.
test:
	$(GO) test -race -shuffle=on ./...

# Determinism gate for the parallel execution layer: sequential (Workers=1)
# and parallel (Workers=8) runs must produce byte-identical tables and
# telemetry at every level (experiment fan-out, chip stepping, OD-RL).
test-determinism:
	$(GO) test -run 'TestParallelDeterminism|TestStepParallelDeterminism|TestDecideParallelDeterminism' \
		./internal/experiments/ ./internal/manycore/ ./internal/core/

# Scenario contract gate: the spec-parity harness (engine tables from
# checked-in JSON specs byte-identical to the experiments goldens at -j1
# and -j4), the cache properties (hit-is-byte-identical, one-field
# mutations change the hash, failures never memoised) and every CLI path
# that reaches the engine: odrl-run's specs and sweeps, odrl-bench's
# table and report modes, and odrl's -write-spec round trip.
test-scenarios:
	$(GO) test -count=1 ./internal/scenario/ ./cmd/odrl-run/ ./cmd/odrl-bench/ ./cmd/odrl/

# Race hammer on the monitor's time-series store: concurrent HTTP-style
# readers snapshotting while the epoch loop appends and decimates.
race-monitor:
	$(GO) test -race -count=1 -run 'TestStoreConcurrentReadWrite|TestSSEStream|TestSlowSubscriber' ./internal/obs/monitor/

# Race hammer on the learn layer's run store: concurrent /debug/learn and
# summary readers while the epoch loop streams per-agent samples.
race-learn:
	$(GO) test -race -count=1 -run 'TestLearnStoreRace' ./internal/obs/learn/

# Race hammer on the run ledger: concurrent CLI sessions appending to one
# ledger.jsonl while readers re-parse it, plus the flight recorder's
# dump-while-recording path.
race-ledger:
	$(GO) test -race -count=1 -run 'TestLedgerConcurrentWriters' ./internal/obs/ledger/
	$(GO) test -race -count=1 -run 'TestDumpAllRacesEpochLoop' ./internal/obs/flight/

# Race gate on the packages the parallel layer touches most; `make test`
# already runs -race repo-wide, this narrows the loop while iterating.
race-par:
	$(GO) test -race ./internal/par/ ./internal/experiments/ ./internal/obs/

# Compile-and-run check of the observability benchmarks, including the
# disabled-hot-path guarantee (<5 ns/epoch with tracing off). One
# iteration keeps CI fast; run `make bench` for real numbers.
bench-obs:
	$(GO) test -run=- -bench=BenchmarkObs -benchtime=1x ./internal/obs/

bench:
	$(GO) test -run=- -bench=. -benchtime=1s ./internal/obs/

# Short fuzz pass over every decoder that accepts external bytes (obs JSONL
# records, fault plans, saved OD-RL policies), plus the differential check
# of the MaxBIPS knapsack against its full-grid reference. Go runs one fuzz
# target per invocation, so each gets its own anchored pattern.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzReadRecords$$' -fuzztime=$(FUZZTIME) ./internal/obs/
	$(GO) test -run='^$$' -fuzz='^FuzzPlanJSON$$' -fuzztime=$(FUZZTIME) ./internal/fault/
	$(GO) test -run='^$$' -fuzz='^FuzzLoadPolicy$$' -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run='^$$' -fuzz='^FuzzRulesJSON$$' -fuzztime=$(FUZZTIME) ./internal/obs/monitor/
	$(GO) test -run='^$$' -fuzz='^FuzzSnapshotRoundTrip$$' -fuzztime=$(FUZZTIME) ./internal/obs/learn/
	$(GO) test -run='^$$' -fuzz='^FuzzAllowComment$$' -fuzztime=$(FUZZTIME) ./internal/analysis/
	$(GO) test -run='^$$' -fuzz='^FuzzSpecJSON$$' -fuzztime=$(FUZZTIME) ./internal/scenario/
	$(GO) test -run='^$$' -fuzz='^FuzzRunRecord$$' -fuzztime=$(FUZZTIME) ./internal/obs/ledger/
	$(GO) test -run='^$$' -fuzz='^FuzzMaxBIPSMatchesReference$$' -fuzztime=$(FUZZTIME) ./internal/baselines/

# Coverage gate: repo-wide statement coverage must stay at or above
# COVER_FLOOR. Writes cover.out for `go tool cover -html=cover.out`.
cover:
	$(GO) test -count=1 -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { \
		if (t + 0 < f + 0) { printf "coverage %.1f%% is below floor %.1f%%\n", t, f; exit 1 } \
		printf "coverage %.1f%% (floor %.1f%%)\n", t, f }'

# Observability overhead gate: the paired off/on harness times the
# run-health monitor, learning introspection and the flight recorder each
# against the bare epoch loop, writes BENCH_monitor.json, BENCH_learn.json
# and BENCH_flight.json, and fails if any case exceeds its layer's ceiling
# (constants in cmd/odrl-bench: monitor 5%, learn 5%, flight 3%). The off
# legs run with no observer at all, so each number is the layer's full cost.
bench-overhead:
	$(GO) run ./cmd/odrl-bench -bench-monitor BENCH_monitor.json -bench-learn BENCH_learn.json -bench-flight BENCH_flight.json

# End-to-end observatory smoke: two short ledgered runs into a scratch
# ledger, then pin the first-run baseline, regression-check the re-run and
# list the history. Proves the whole record->query->gate loop outside unit
# tests; the scratch dir keeps CI runs out of the operator's real ledger.
obs-smoke:
	rm -rf .odrl-smoke
	ODRL_LEDGER=.odrl-smoke/ledger $(GO) run ./cmd/odrl -controllers greedy -cores 16 -warmup 0.2 -measure 0.5
	ODRL_LEDGER=.odrl-smoke/ledger $(GO) run ./cmd/odrl-obs -pin latest
	ODRL_LEDGER=.odrl-smoke/ledger $(GO) run ./cmd/odrl -controllers greedy -cores 16 -warmup 0.2 -measure 0.5
	ODRL_LEDGER=.odrl-smoke/ledger $(GO) run ./cmd/odrl-obs -check
	ODRL_LEDGER=.odrl-smoke/ledger $(GO) run ./cmd/odrl-obs -list
	rm -rf .odrl-smoke

# Compile-and-run smoke of the kernel benchmarks for CI: one iteration of
# every struct-of-arrays StepKernel case and of the Gaussian sampler, so
# the profiling harness can't rot. Kernel throughput itself is measured by
# the repo benchmark (benchmark/, workload kernel-1024).
bench-step-smoke:
	$(GO) test -run=- -bench='BenchmarkStepKernel' -benchtime=1x .
	$(GO) test -run=- -bench='BenchmarkNormFloat64' -benchtime=1x ./internal/rng/
