GO ?= go

.PHONY: check build vet lint test race bench fuzz saexp chaos chaos-warm scenarios cover trace-demo profile

# -benchtime for bench; set BENCHTIME=1x for a smoke run.
BENCHTIME ?= 1s

# Coverage floors for the protocol-bearing packages (make cover).
COVER_FLOOR_core := 85
COVER_FLOOR_kernel := 80

# The tier-1 gate: everything a PR must keep green.
check: build lint test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# vet plus the source gates:
#  - interface seam: engines are consumed through the sim.Engine interface
#    only, so no package outside internal/sim may name a concrete engine type;
#  - the retired sim.StatsSink global must not come back (per-engine close
#    hooks replaced it);
#  - internal/sim starts no goroutine and makes no channel in any non-test
#    file: coroutines switch through iter.Pull, which only coroutine.go and
#    pool.go may call (TestSimConcurrencyIsAudited enforces the same rule
#    from inside).
lint: vet
	@if grep -rn --include='*.go' -E 'sim\.SeqEngine\b' --exclude-dir=sim .; then \
		echo "lint: concrete engine type referenced outside internal/sim (hold sim.Engine instead)"; exit 1; \
	fi
	@if grep -rn --include='*.go' 'sim\.StatsSink' .; then \
		echo "lint: retired sim.StatsSink referenced (use per-engine close hooks / exp.SetStatsSink)"; exit 1; \
	fi
	@if grep -n -E '^[[:space:]]*go[[:space:]]|go func|make\(chan' $$(ls internal/sim/*.go | grep -v '_test\.go$$'); then \
		echo "lint: goroutine or channel in internal/sim (coroutines switch through iter.Pull)"; exit 1; \
	fi
	@if grep -ln -E 'iter\.Pull[[(]' internal/sim/*.go | grep -v -E '_test\.go|/(coroutine|pool)\.go'; then \
		echo "lint: iter.Pull in internal/sim outside coroutine.go, pool.go"; exit 1; \
	fi
	@echo "lint: ok"

test:
	$(GO) test ./...

# The sim engine runs each coroutine on its own iter.Pull, and the fleet pool
# fans engines across cores; race-check both, plus a real parallel sweep.
race:
	$(GO) test -race ./internal/sim/... ./internal/fleet/...
	$(GO) test -race -run 'TestParallelSweepMatchesSequential|TestChaosSweepShort|TestWarmContext' ./internal/exp/

bench:
	$(GO) test -run xxx -bench . -benchmem -benchtime $(BENCHTIME) . ./internal/...

# -fuzzminimizetime keeps corpus minimization from eating the budget: the
# oracle target finds many new coverage paths per run.
fuzz:
	$(GO) test -run xxx -fuzz FuzzEventHeapOps -fuzztime 15s ./internal/sim/
	$(GO) test -run xxx -fuzz FuzzWheelVsHeapOracle -fuzztime 15s -fuzzminimizetime 5s ./internal/sim/
	$(GO) test -run xxx -fuzz FuzzPooledVsUnpooled -fuzztime 15s -fuzzminimizetime 5s ./internal/sim/
	$(GO) test -run xxx -fuzz FuzzEngineReset -fuzztime 15s -fuzzminimizetime 5s ./internal/sim/
	$(GO) test -run xxx -fuzz FuzzUpcallDowncall -fuzztime 15s ./internal/core/
	$(GO) test -run xxx -fuzz FuzzSpecParse -fuzztime 15s -fuzzminimizetime 5s ./internal/scenario/

saexp:
	$(GO) build -o bin/saexp ./cmd/saexp

# Seeded fault-injection sweep with the invariant auditor armed; nonzero
# exit on any violation, lost thread, or nondeterministic replay. Override
# the range with SEEDS/FIRST (e.g. `make chaos SEEDS=256 FIRST=100`).
SEEDS ?= 64
FIRST ?= 1
chaos:
	$(GO) run ./cmd/saexp -chaos -seeds $(SEEDS) -first $(FIRST)

# Warm/cold equivalence oracle over the full sweep width: every seed's
# fingerprint from a recycled RunContext compared against a cold run's, plus
# the golden traces replayed on one recycled engine.
chaos-warm:
	SCHEDACT_WARM_SEEDS=64 $(GO) test -run 'TestWarmContextMatchesCold|TestGoldenTracesWarmEngine' -count=1 ./internal/exp/

# Scenario-layer gate: the whole spec pipeline (strict parsing, validation
# paths, round-trip, compile orderings, the FuzzSpecParse seed corpus), then
# the canonical specs compiled and run with their fingerprints diffed against
# the pinned per-seed table, and finally the CLI surface smoked end-to-end —
# -list, and a custom spec fed through -scenario on stdin.
scenarios:
	$(GO) test -count=1 ./internal/scenario/
	$(GO) test -run 'TestScenario|TestFingerprintsPinned|TestExperimentOutputsDeterministic' -count=1 ./internal/exp/
	$(GO) run ./cmd/saexp -list
	echo '{"name":"ci-smoke","workload":{"kind":"nbody","nbody":{"n":16,"steps":2}},"machine":{"cpus":2},"binding":{"systems":["new-ft"],"procs":[1,2]}}' \
		| $(GO) run ./cmd/saexp -scenario -

# CPU + heap profile of the chaos sweep (the macro hot path) at -workers 1,
# so the profile is the engine, not the fleet. View with
# `go tool pprof -http=: cpu.pprof`.
PROFILE_SEEDS ?= 16
profile: saexp
	./bin/saexp -chaos -seeds $(PROFILE_SEEDS) -workers 1 -cpuprofile cpu.pprof -memprofile mem.pprof > /dev/null
	@echo "wrote cpu.pprof and mem.pprof (view: go tool pprof -http=: cpu.pprof)"

# Export a Chrome/Perfetto trace of the Figure 1 smoke run and verify the
# JSON parses (saexp re-reads its own output; python double-checks).
trace-demo:
	$(GO) run ./cmd/saexp -exp fig1 -trace-out /tmp/fig1.json
	@if command -v python3 >/dev/null; then \
		python3 -c "import json; d=json.load(open('/tmp/fig1.json')); print('trace-demo: /tmp/fig1.json parses,', len(d['traceEvents']), 'trace events')"; \
	else \
		echo "trace-demo: python3 unavailable; JSON already validated by saexp itself"; \
	fi

# Per-package coverage with floors on the protocol-bearing packages.
cover:
	@set -e; for spec in core:$(COVER_FLOOR_core) kernel:$(COVER_FLOOR_kernel); do \
		pkg=$${spec%%:*}; floor=$${spec##*:}; \
		$(GO) test -coverprofile=/tmp/schedact-cover-$$pkg.out ./internal/$$pkg/ >/dev/null; \
		pct=$$($(GO) tool cover -func=/tmp/schedact-cover-$$pkg.out | awk '/^total:/ {gsub(/%/,"",$$3); print $$3}'); \
		echo "internal/$$pkg coverage: $$pct% (floor $$floor%)"; \
		ok=$$(awk -v p="$$pct" -v f="$$floor" 'BEGIN { print (p >= f) ? 1 : 0 }'); \
		if [ "$$ok" != 1 ]; then echo "internal/$$pkg coverage $$pct% below floor $$floor%"; exit 1; fi; \
	done
