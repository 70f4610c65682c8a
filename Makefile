# Developer entry points. The repo is stdlib-only Go; everything here
# is plain toolchain invocations.

GO ?= go

.PHONY: all build vet test race lint chaos crash-smoke fuzz-smoke stats-smoke par-smoke serve-smoke stream-smoke bench-smoke e2ebench-test oracle check

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The refiners' Stop hooks and the cancellation plumbing are shared
# mutable state; the race detector must stay clean.
race:
	$(GO) test -race ./...

# Project-specific determinism & safety linter (cmd/mllint): global
# math/rand, map-order leaks, float equality, unchecked int32
# narrowing, context threading. See the "Static analysis" section of
# the README for the check list and the suppression syntax.
lint:
	$(GO) run ./cmd/mllint ./...

# Chaos suite: the deterministic fault-injection sweep (every site ×
# every fault kind × both entry points) plus the parallel multi-start
# supervisor tests and the mlpartd server chaos sweep (faults at
# server.admit / server.job / server.batch / server.events under a
# concurrent burst: every accepted job must reach exactly one terminal
# status and a poisoned batch job fails alone), under the race
# detector — the recovery paths must be both correct and race-free.
chaos:
	$(GO) test -race -run 'TestChaos|TestParallelMultiStart|TestRecoveredStart|TestAttemptTimeout|TestOuterCancel|TestRetried|TestRunStarts' . ./internal/core
	$(GO) test -race ./internal/faultinject ./internal/journal ./internal/intrapar
	$(GO) test -race -run 'TestChaosSweepServer|TestChaosSweepJournal|TestDrainMidBurst|TestQueueFullSheds|TestAdmitPanic|TestJobPanic|TestBatch|TestSSE' ./internal/server

# Crash durability harness: launch cmd/mlpartd as a real subprocess
# with a write-ahead job journal, SIGKILL it at a deterministic
# journal position mid-burst (and once more under an injected torn
# write), restart it on the same journal, and audit that no
# acknowledged job was lost or double-completed. statscheck -journal
# validates the journal's lifecycle invariants offline at each step.
crash-smoke:
	$(GO) test -v -count=1 -run 'TestCmdMlpartdCrash|TestCmdStatscheckJournal' .

# Short fuzz run over the parser hardening (resource limits, overflow
# checks). The checked-in corpus under
# internal/hypergraph/testdata/fuzz seeds it.
fuzz-smoke:
	$(GO) test -fuzz=FuzzReadHGR -fuzztime=10s ./internal/hypergraph

# Telemetry smoke: run the CLI with -stats-json on the checked-in
# mesh netlist at two parallelism levels, validate both reports with
# cmd/statscheck, and require the timing-stripped reports to be
# byte-identical (the determinism contract of the stats schema).
stats-smoke:
	$(GO) run ./cmd/mlpart -in cmd/mlpart/testdata/smoke.hgr -out /dev/null \
		-starts 3 -parallel 1 -stats-json /tmp/mlpart-stats-p1.json
	$(GO) run ./cmd/mlpart -in cmd/mlpart/testdata/smoke.hgr -out /dev/null \
		-starts 3 -parallel 4 -stats-json /tmp/mlpart-stats-p4.json
	$(GO) run ./cmd/statscheck -in /tmp/mlpart-stats-p1.json -strip > /tmp/mlpart-stats-p1.stripped.json
	$(GO) run ./cmd/statscheck -in /tmp/mlpart-stats-p4.json -strip > /tmp/mlpart-stats-p4.stripped.json
	cmp /tmp/mlpart-stats-p1.stripped.json /tmp/mlpart-stats-p4.stripped.json

# Intra-parallelism smoke: the end-to-end determinism contract of the
# worker pool. The same instance through the CLI at -intra-parallel 1
# and 8 must produce byte-identical partition files and byte-identical
# timing-stripped stats reports (intra_workers and the *_par_regions
# counters live in the timings block precisely so stripping removes
# them).
par-smoke:
	$(GO) run ./cmd/mlpart -in cmd/mlpart/testdata/smoke.hgr -out /tmp/mlpart-par-i1.part \
		-starts 3 -parallel 2 -intra-parallel 1 -stats-json /tmp/mlpart-par-i1.json
	$(GO) run ./cmd/mlpart -in cmd/mlpart/testdata/smoke.hgr -out /tmp/mlpart-par-i8.part \
		-starts 3 -parallel 2 -intra-parallel 8 -stats-json /tmp/mlpart-par-i8.json
	cmp /tmp/mlpart-par-i1.part /tmp/mlpart-par-i8.part
	$(GO) run ./cmd/statscheck -in /tmp/mlpart-par-i1.json -strip > /tmp/mlpart-par-i1.stripped.json
	$(GO) run ./cmd/statscheck -in /tmp/mlpart-par-i8.json -strip > /tmp/mlpart-par-i8.stripped.json
	cmp /tmp/mlpart-par-i1.stripped.json /tmp/mlpart-par-i8.stripped.json

# Service smoke: mlpartd's loopback self-test drives the daemon over
# real HTTP (submit / wait / result, byte-identical cache hit, then a
# self-delivered SIGTERM through the production drain path) and the
# final service stats are piped into cmd/statscheck, which validates
# the mlpartd-stats/1 accounting ledger from stdin.
serve-smoke:
	$(GO) build -o /tmp/mlpartd-smoke ./cmd/mlpartd
	/tmp/mlpartd-smoke -smoke -in cmd/mlpart/testdata/smoke.hgr | $(GO) run ./cmd/statscheck

# Streaming smoke: the batching + SSE variant of the service smoke. A
# burst of small jobs (distinct seeds, cache off) rides the micro-batch
# lane while one SSE consumer checks the queued → started → completed
# event order and Last-Event-ID resume on a real socket, a second
# reads service-wide ledger deltas from /v1/events, /statsz answers in
# both the mlpartd-stats/1 and mlpart-bench/1 schemas, and the final
# ledger (batched / batch_flushes / events_dropped included) is
# validated by cmd/statscheck.
stream-smoke:
	$(GO) build -o /tmp/mlpartd-stream ./cmd/mlpartd
	/tmp/mlpartd-stream -smoke -stream -in cmd/mlpart/testdata/smoke.hgr \
		-cache -1 -batch-pins 1000000 -batch-delay 5ms | $(GO) run ./cmd/statscheck

# Benchmark regression gate: cmd/benchrun sweeps the pinned netgen
# instances, writes BENCH_<date>.json, and gates cuts (exact) and
# allocs/op (tolerance) against the checked-in bench_baseline.json.
# Timings are recorded but never gated. Two measured iterations keep
# the smoke fast; regenerate the baseline deliberately with
# `go run ./cmd/benchrun -update`.
bench-smoke:
	$(GO) run ./cmd/benchrun -iters 2 -out /tmp/mlpart-bench-smoke.json

# The end-to-end benchmark (e2ebench/, see BENCHMARK.json) is its own
# Go module, so `go test ./...` at the root never reaches its unit
# tests: tail selection, quartiles, span self-time, plan determinism
# and the BENCHMARK.json match. Vet and test it from inside.
e2ebench-test:
	cd e2ebench && $(GO) vet ./... && $(GO) test ./...

# Differential oracle suite: the optimized pipeline against the slow
# from-scratch reference (internal/oracle), twice to catch state
# leaking between runs, under the race detector.
oracle:
	$(GO) test -race -run Oracle -count=2 . ./internal/fm ./internal/oracle

check: build vet test race lint chaos crash-smoke fuzz-smoke stats-smoke par-smoke serve-smoke stream-smoke oracle bench-smoke e2ebench-test
