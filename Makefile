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

.PHONY: ci lint lint-allows vet build bench-compile test test-determinism test-scenarios claims report-check race-monitor race-learn race-ledger race-par bench-obs bench bench-overhead bench-step-smoke obs-smoke fuzz-smoke cover

ci: lint vet build bench-compile test test-determinism test-scenarios claims report-check race-monitor race-learn race-ledger race-par bench-obs bench-overhead bench-step-smoke obs-smoke fuzz-smoke cover

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
# The second leg reruns the goldens, the spec-parity harness, the rng
# tests, the predictor's LUT-against-LeakageW oracle and the MaxBIPS and
# SteepestDrop oracles with GODEBUG=cpu.fma=off. On amd64 that flag changes
# only which assembly math.Exp runs (FMA or plain, which differ in the
# last bit on some arguments), so a table or golden that reproduces only
# on FMA hosts fails here instead of on a contributor's machine.
test-determinism:
	$(GO) test -run 'TestParallelDeterminism|TestStepParallelDeterminism|TestDecideParallelDeterminism' \
		./internal/experiments/ ./internal/manycore/ ./internal/core/
	GODEBUG=cpu.fma=off $(GO) test -count=1 ./internal/experiments/ ./internal/scenario/ ./internal/rng/ \
		./internal/ctrl/ ./internal/baselines/

# Scenario contract gate: the spec-parity harness (engine tables from
# checked-in JSON specs byte-identical to the experiments goldens at -j1
# and -j4), the cache properties (hit-is-byte-identical, one-field
# mutations change the hash, failures never memoised) and every CLI path
# that reaches the engine: odrl-run's specs and sweeps, odrl-bench's
# table and report modes, and odrl's -write-spec round trip.
test-scenarios:
	$(GO) test -count=1 ./internal/scenario/ ./cmd/odrl-run/ ./cmd/odrl-bench/ ./cmd/odrl/

# Reproduction gate: the paper's claims C1–C4, judged on quick seeds 1–2
# through the scenario engine; a failing verdict on any seed exits 1.
# Full fidelity (seeds 1–5) is `go run ./cmd/odrl-run -builtin CLAIMS`.
claims:
	$(GO) run ./cmd/odrl-run -builtin CLAIMS -quick -no-ledger

# Full-fidelity reproduction gate. The goldens and spec parity run at quick
# fidelity (at most 16 cores, 0.5 s windows); this target regenerates every
# table at the default fidelity into a scratch directory and compares it
# with the committed results/ that REPORT.md and the README quote. Every
# CSV must match byte for byte, except that f5.csv compares only its
# deterministic columns (cores, budget, noc-gather, both work columns and
# work-ratio) and its notes: its latency columns are this host's wall clock.
# A mismatch means full-fidelity output moved: regenerate REPORT.md and
# results/ in the same change with
# `go run ./cmd/odrl-bench -report REPORT.md -o results -no-ledger`.
report-check:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) run ./cmd/odrl-bench -o "$$dir" -no-ledger > /dev/null || exit 1; \
	f5() { awk -F, '/^#/ { print; next } { print $$1 "," $$2 "," $$7 "," $$8 "," $$9 "," $$10 }' "$$1"; }; \
	ok=1; \
	for want in results/*.csv; do \
		n=$${want##*/}; got="$$dir/$$n"; \
		if [ "$$n" = f5.csv ]; then f5 "$$want" > "$$dir/f5.want"; f5 "$$got" > "$$dir/f5.got"; want="$$dir/f5.want"; got="$$dir/f5.got"; fi; \
		cmp -s "$$want" "$$got" || { echo "report-check: full-fidelity $$n moved:"; diff "$$want" "$$got"; ok=0; }; \
	done; \
	for got in "$$dir"/*.csv; do \
		[ -e "results/$${got##*/}" ] || { echo "report-check: $${got##*/} is missing from results/"; ok=0; }; \
	done; \
	[ $$ok = 1 ] && echo "report-check: every full-fidelity table matches results/"

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
# records, fault plans, policy snapshots and the saved OD-RL policies
# LoadPolicy reads), plus the differential checks of the MaxBIPS knapsack
# against its full-grid reference, of the OD-RL agent fleet against the
# per-agent learner it replaced, and of the batched Gaussian fill against
# one NormFloat64 at a time. Go runs one fuzz target per invocation,
# so each gets its own anchored pattern. -fuzzminimizetime=1x keeps the
# minimisation of each new input from eating the budget; a crasher is then
# saved unminimised, and still replays with `go test -run`.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzReadRecords$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/obs/
	$(GO) test -run='^$$' -fuzz='^FuzzPlanJSON$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/fault/
	$(GO) test -run='^$$' -fuzz='^FuzzLoadPolicy$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/core/
	$(GO) test -run='^$$' -fuzz='^FuzzRulesJSON$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/obs/monitor/
	$(GO) test -run='^$$' -fuzz='^FuzzSnapshotRoundTrip$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/rl/
	$(GO) test -run='^$$' -fuzz='^FuzzFleetMatchesReference$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/rl/
	$(GO) test -run='^$$' -fuzz='^FuzzAllowComment$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/analysis/
	$(GO) test -run='^$$' -fuzz='^FuzzSpecJSON$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/scenario/
	$(GO) test -run='^$$' -fuzz='^FuzzRunRecord$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/obs/ledger/
	$(GO) test -run='^$$' -fuzz='^FuzzMaxBIPSMatchesReference$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/baselines/
	$(GO) test -run='^$$' -fuzz='^FuzzSteepestDropMatchesReference$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/baselines/
	$(GO) test -run='^$$' -fuzz='^FuzzNormFillMatches$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/rng/

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
# list the history. Then the learning path: two same-seed OD-RL runs that
# record their learning reports and policy snapshots into the ledger;
# -show of the first must print its learning curves, and -diff of the pair
# must find identical policies and no regression. Proves the whole
# record->query->gate loop outside unit tests; the scratch dir keeps CI
# runs out of the operator's real ledger.
obs-smoke:
	rm -rf .odrl-smoke
	ODRL_LEDGER=.odrl-smoke/ledger $(GO) run ./cmd/odrl -controllers greedy -cores 16 -warmup 0.2 -measure 0.5
	ODRL_LEDGER=.odrl-smoke/ledger $(GO) run ./cmd/odrl-obs -pin latest
	ODRL_LEDGER=.odrl-smoke/ledger $(GO) run ./cmd/odrl -controllers greedy -cores 16 -warmup 0.2 -measure 0.5
	ODRL_LEDGER=.odrl-smoke/ledger $(GO) run ./cmd/odrl-obs -check
	ODRL_LEDGER=.odrl-smoke/ledger $(GO) run ./cmd/odrl-obs -list
	ODRL_LEDGER=.odrl-smoke/learn $(GO) run ./cmd/odrl -controllers od-rl -cores 16 -warmup 0.2 -measure 0.5 -snapshot-every 100
	ODRL_LEDGER=.odrl-smoke/learn $(GO) run ./cmd/odrl -controllers od-rl -cores 16 -warmup 0.2 -measure 0.5 -snapshot-every 100
	export ODRL_LEDGER=.odrl-smoke/learn; \
	ids=$$($(GO) run ./cmd/odrl-obs -list -tool odrl | awk 'NR > 1 { print $$1 }'); \
	set -- $$ids; [ $$# -eq 2 ] || { echo "obs-smoke: want 2 learning records, got $$#"; exit 1; }; \
	$(GO) run ./cmd/odrl-obs -show $$1 > .odrl-smoke/show.txt && grep -q 'learning curves' .odrl-smoke/show.txt && \
	$(GO) run ./cmd/odrl-obs -diff $$1 $$2 > .odrl-smoke/diff.txt && \
	grep -q 'policies identical at every common snapshot epoch' .odrl-smoke/diff.txt && grep -q '0 regressions' .odrl-smoke/diff.txt || \
	{ cat .odrl-smoke/show.txt .odrl-smoke/diff.txt; exit 1; }
	rm -rf .odrl-smoke

# Compile-and-run smoke of the kernel benchmarks for CI: one iteration of
# every struct-of-arrays StepKernel case and of the Gaussian sampler, one
# draw and one batch at a time, so the profiling harness can't rot. Kernel throughput itself is measured by
# the repo benchmark (benchmark/, workload kernel-1024).
bench-step-smoke:
	$(GO) test -run=- -bench='BenchmarkStepKernel' -benchtime=1x .
	$(GO) test -run=- -bench='BenchmarkNorm' -benchtime=1x ./internal/rng/
