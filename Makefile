GO ?= go

.PHONY: check build vet lint test race bench bench-json bench-diff fuzz replay saexp chaos chaos-warm scenarios shard-smoke cover trace-demo profile

# -benchtime for bench/bench-json; set BENCHTIME=1x for a smoke run.
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
#  - concurrency in internal/sim is restricted to the audited files — the
#    coroutine hand-off and the goroutine pool; a goroutine or channel
#    anywhere else is a design violation (TestSimConcurrencyIsAudited
#    enforces the same rule from inside).
lint: vet
	@if grep -rn --include='*.go' -E 'sim\.(SeqEngine|ReplayEngine)\b' --exclude-dir=sim .; then \
		echo "lint: concrete engine type referenced outside internal/sim (hold sim.Engine instead)"; exit 1; \
	fi
	@if grep -rn --include='*.go' 'sim\.StatsSink' .; then \
		echo "lint: retired sim.StatsSink referenced (use per-engine close hooks / exp.SetStatsSink)"; exit 1; \
	fi
	@if grep -ln --include='*.go' -E 'go func|make\(chan' internal/sim/*.go \
		| grep -v -E '_test\.go|/(coroutine|pool)\.go'; then \
		echo "lint: unaudited concurrency in internal/sim (allowed only in coroutine.go, pool.go)"; exit 1; \
	fi
	@echo "lint: ok"

test:
	$(GO) test ./...

# The sim engine hands a goroutine per coroutine, and the fleet pool fans
# engines across cores; race-check both, plus a real parallel sweep.
race:
	$(GO) test -race ./internal/sim/... ./internal/fleet/...
	$(GO) test -race -run 'TestParallelSweepMatchesSequential|TestChaosSweepShort|TestWarmContext|TestChaosSweepCheckpointResume' ./internal/exp/

bench:
	$(GO) test -run xxx -bench . -benchmem -benchtime $(BENCHTIME) . ./internal/...

# Archive benchmark numbers in machine-readable form.
bench-json:
	$(GO) build -o bin/benchjson ./cmd/benchjson
	$(GO) test -run xxx -bench . -benchmem -benchtime $(BENCHTIME) . ./internal/... | ./bin/benchjson > BENCH.json
	@echo "wrote BENCH.json"

# Diff a fresh 1x benchmark run against the committed BENCH.json baseline.
# BENCHDIFF_FLAGS=-soft makes it report-only (CI's shared 1-core runners are
# too noisy to gate hard); run locally without it to enforce the threshold.
BENCHDIFF_FLAGS ?=
bench-diff:
	$(GO) build -o bin/benchjson ./cmd/benchjson
	$(GO) test -run xxx -bench . -benchmem -benchtime $(BENCHTIME) . ./internal/... | ./bin/benchjson > /tmp/schedact-bench-new.json
	./bin/benchjson -old BENCH.json -new /tmp/schedact-bench-new.json $(BENCHDIFF_FLAGS)

# -fuzzminimizetime keeps corpus minimization from eating the budget: the
# oracle target finds many new coverage paths per run.
fuzz:
	$(GO) test -run xxx -fuzz FuzzEventHeapOps -fuzztime 15s ./internal/sim/
	$(GO) test -run xxx -fuzz FuzzWheelVsHeapOracle -fuzztime 15s -fuzzminimizetime 5s ./internal/sim/
	$(GO) test -run xxx -fuzz FuzzPooledVsUnpooled -fuzztime 15s -fuzzminimizetime 5s ./internal/sim/
	$(GO) test -run xxx -fuzz FuzzEngineReset -fuzztime 15s -fuzzminimizetime 5s ./internal/sim/
	$(GO) test -run xxx -fuzz FuzzUpcallDowncall -fuzztime 15s ./internal/core/

saexp:
	$(GO) build -o bin/saexp ./cmd/saexp

# Seeded fault-injection sweep with the invariant auditor armed; nonzero
# exit on any violation, lost thread, or nondeterministic replay. Override
# the range with SEEDS/FIRST (e.g. `make chaos SEEDS=256 FIRST=100`); set
# CHAOS_CHECKPOINT to a path to make the sweep resumable across invocations.
SEEDS ?= 64
FIRST ?= 1
CHAOS_CHECKPOINT ?=
chaos:
	$(GO) run ./cmd/saexp -chaos -seeds $(SEEDS) -first $(FIRST) $(if $(CHAOS_CHECKPOINT),-checkpoint $(CHAOS_CHECKPOINT))

# Warm/cold equivalence oracle over the full sweep width: every seed's
# fingerprint from a recycled RunContext compared against a cold run's, plus
# the golden traces replayed on one recycled engine.
chaos-warm:
	SCHEDACT_WARM_SEEDS=64 $(GO) test -run 'TestWarmContextMatchesCold|TestGoldenTracesWarmEngine' -count=1 ./internal/exp/

# Record/replay pin: every sweep seed recorded on the reference engine and
# re-executed on the tape-driven replay engine, fingerprints compared.
replay:
	SCHEDACT_REPLAY_SEEDS=64 $(GO) test -run TestReplayEngineMatchesReference -count=1 ./internal/exp/

# Scenario-layer gate: the whole spec pipeline (strict parsing, validation
# paths, round-trip, resume keys, compile orderings, checkpoint envelope),
# then the canonical specs compiled and run with their fingerprints diffed
# against the pinned per-seed table, and finally the CLI surface smoked
# end-to-end — -list, and a custom spec fed through -scenario on stdin.
scenarios:
	$(GO) test -count=1 ./internal/scenario/
	$(GO) test -run 'TestScenario|TestFingerprintsPinned|TestExperimentOutputsDeterministic' -count=1 ./internal/exp/
	$(GO) run ./cmd/saexp -list
	echo '{"name":"ci-smoke","workload":{"kind":"nbody","nbody":{"n":16,"steps":2}},"machine":{"cpus":2},"binding":{"systems":["new-ft"],"procs":[1,2]}}' \
		| $(GO) run ./cmd/saexp -scenario -

# Sharded-sweep smoke: the canonical 64-seed chaos sweep run as 4 shard
# processes by the self-exec driver — with shard 1 first killed mid-run so
# the driver's crash-resume path really executes — then the merged verdict
# lines (latency quantiles, pass/fail) diffed against a single-process run,
# and the per-seed JSONL results checked for full seed coverage. The
# fleet-fingerprint lines are excluded from the diff deliberately: a k-shard
# merge reports the hierarchical digest-of-digests, not the flat chain
# (DESIGN.md §9); flat per-seed identity is pinned by the shard=1 tests.
SHARD_SMOKE_DIR ?= /tmp/schedact-shard-smoke
shard-smoke: saexp
	rm -rf $(SHARD_SMOKE_DIR) && mkdir -p $(SHARD_SMOKE_DIR)
	./bin/saexp -scenario chaos64 > $(SHARD_SMOKE_DIR)/unsharded.txt
	-timeout -s KILL 0.15 ./bin/saexp -scenario chaos64 -shard 1/4 -workers 1 \
		-checkpoint $(SHARD_SMOKE_DIR)/ck.shard1of4 -checkpoint-every 2 \
		-results $(SHARD_SMOKE_DIR)/seeds.jsonl.shard1of4 > /dev/null 2>&1
	./bin/saexp -scenario chaos64 -shard-exec 4 -checkpoint $(SHARD_SMOKE_DIR)/ck \
		-results $(SHARD_SMOKE_DIR)/seeds.jsonl > $(SHARD_SMOKE_DIR)/sharded.txt
	grep -E 'latency|seeds passed|seeds FAILED' $(SHARD_SMOKE_DIR)/unsharded.txt > $(SHARD_SMOKE_DIR)/want.txt
	grep -E 'latency|seeds passed|seeds FAILED' $(SHARD_SMOKE_DIR)/sharded.txt > $(SHARD_SMOKE_DIR)/got.txt
	diff $(SHARD_SMOKE_DIR)/want.txt $(SHARD_SMOKE_DIR)/got.txt
	@seeds=$$(cat $(SHARD_SMOKE_DIR)/seeds.jsonl.shard*of4 | grep -o '"seed":[0-9]*' | sort -u | wc -l); \
		echo "shard-smoke: $$seeds distinct seeds in JSONL results"; test "$$seeds" -eq 64
	@echo "shard-smoke: 4-process sharded sweep (shard 1 killed and resumed) matches the single-process run"

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
