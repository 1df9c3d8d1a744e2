# Developer entry points. Everything here is plain `go` tooling; the
# targets just record the invocations the project expects to stay green.

GO ?= go

.PHONY: all help test race short bench fuzz fuzz-smoke chaos crash stress vet

all: test

help:
	@echo "Targets:"
	@echo "  test        build everything and run the full suite (default)"
	@echo "  race        race-clean gate: vet + chaos sweep + short suite under -race (archive/recheck run unshortened)"
	@echo "  short       the suite minus campaign-scale tests"
	@echo "  bench       all benchmarks with -benchmem; records BENCH_PR10.json via cmd/benchjson"
	@echo "  chaos       seeded transport-chaos suite under -race + wire fuzz smoke"
	@echo "  crash       subprocess SIGKILL matrix: 16 seeded kills of a real monitord under -race"
	@echo "  stress      crash, chaos, resume-window and rollout suites at -count=20 (flake hunt)"
	@echo "  fuzz        brief fuzz passes (wire decoder, spec parser, archive segments)"
	@echo "  fuzz-smoke  10s each of the segment, wire, ledger and spec-parser fuzzers"
	@echo "  vet         go vet everything"

test:
	$(GO) build ./...
	$(GO) test ./...

# The fleet server, HIL benches and campaigns are concurrent; the suite
# must stay race-clean. `-short` skips the campaign-scale tests so the
# race run stays quick enough to use before every push. The chaos sweep
# rides along (transport resilience bugs are concurrency bugs), and vet
# runs first so cheap static findings surface before the slow sweep.
# The archive store and recheck engine are listed explicitly: their
# torn-tail recovery and pump-drain tests are exactly the concurrent
# durability paths the race gate exists for, and -count=1 keeps cached
# passes from masking them. core and speclang join the list with PR 8's
# parallel grid evaluation and sharded recheck: the differential tests
# (parallel output == sequential at 1/2/4/8 workers) are only meaningful
# under the race detector. specreg joins with PR 10: the rollout
# controller races its poll loop against operator promote/rollback by
# design.
race: vet chaos crash
	$(GO) test -race -short ./...
	$(GO) test -race -count=1 ./internal/archive ./internal/recheck ./internal/durable ./internal/core ./internal/speclang ./internal/specreg

# The seeded transport-chaos suite (fault-injected connections, resume,
# drain) under the race detector, plus a short wire-decoder fuzz smoke —
# the robustness gate for the fleet path.
chaos:
	$(GO) test -race -run 'TestChaos|TestDrain|TestQuarantine|TestErrorBudget' -count=1 ./internal/fleet
	$(GO) test -run=^$$ -fuzz=FuzzDecode -fuzztime=10s ./internal/wire

# The crash-safety acceptance gate: SIGKILL a real monitord subprocess
# at 16 seeded uplink offsets (plus a chaos disconnect each), restart on
# the same state dir, and require byte-identical verdicts with zero
# duplicates — all under the race detector.
crash:
	$(GO) test -race -run 'TestCrashRecovery' -count=1 ./cmd/monitord

# Flake hunt: the suites whose failures have been intermittent rather
# than deterministic — the crash matrix, the transport-chaos sweep with
# the resume-window tests, and spec rollout (fleet and controller) —
# each run twenty times under the race detector. A test that fails one
# run in ten is caught here by the target rather than by luck.
stress:
	$(GO) test -race -run 'TestCrashRecovery' -count=20 ./cmd/monitord
	$(GO) test -race -run 'TestChaos|TestDrain|TestQuarantine|TestErrorBudget|TestResumeInside' -count=20 ./internal/fleet
	$(GO) test -race -run 'TestRollout' -count=20 ./internal/fleet
	$(GO) test -race -count=20 ./internal/specreg

short:
	$(GO) test -short ./...

# Runs every benchmark and snapshots the numbers to BENCH_PR10.json so
# performance work leaves a committed, diffable record; the label says
# which PR produced the snapshot even once copied elsewhere. The PR10
# snapshot is the proof spec rollout kept the pinned costs with shadow
# mode off — Fig1 codec 0 allocs/op, MonitorOnline 400 allocs/op,
# BenchmarkFleetIngest within 3% of BENCH_PR9.json — and documents the
# deliberate ~2x ns/frame of BenchmarkFleetIngestShadow while a canary
# is being dual-evaluated.
bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./... | tee /dev/stderr | $(GO) run ./cmd/benchjson -label PR10 > BENCH_PR10.json

# Brief fuzz passes over the parser/formatter, the wire codec and the
# archive segment reader.
fuzz: fuzz-smoke
	$(GO) test -run=^$$ -fuzz=FuzzParse -fuzztime=10s ./internal/speclang

# The deserializers that face bytes an attacker (or a crash) wrote:
# the archive segment store recovering arbitrary tail damage, the wire
# decoder, the session ledger fold — and, since `spec push` started
# accepting operator uploads into a running daemon, the spec parser and
# compiler (every refusal must be a positioned error, never a panic).
# 10 seconds each — the smoke level CI can afford on every run.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzSegment -fuzztime=10s ./internal/archive
	$(GO) test -run=^$$ -fuzz=FuzzDecode -fuzztime=10s ./internal/wire
	$(GO) test -run=^$$ -fuzz=FuzzLedgerFold -fuzztime=10s ./internal/durable
	$(GO) test -run=^$$ -fuzz=FuzzSpecParser -fuzztime=10s ./internal/speclang

vet:
	$(GO) vet ./...
