GO ?= go

# Pinned staticcheck release; CI installs exactly this version and
# `make lint` uses whatever matching binary is on PATH (skipping with a
# pointer when none is — the container image may be offline).
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: ci lint fmt vet staticcheck staticcheck-version build test \
	test-generic test-nofma race race-parallel bench bench-test bench-alloc \
	bench-compare leakcheck fuzz examples smoke-service smoke-fleet \
	smoke-objstore

ci: lint build test test-generic test-nofma race race-parallel bench-test examples smoke-service smoke-fleet smoke-objstore bench-compare

# lint is the static gate CI's lint job runs: formatting, go vet,
# staticcheck, and the public-API leak check.
lint: fmt vet staticcheck leakcheck

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

staticcheck:
	@bin=""; \
	if command -v staticcheck >/dev/null 2>&1; then \
		bin=staticcheck; \
	elif [ -x "$$($(GO) env GOPATH)/bin/staticcheck" ]; then \
		bin="$$($(GO) env GOPATH)/bin/staticcheck"; \
	fi; \
	if [ -z "$$bin" ]; then \
		echo "staticcheck: not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	else \
		if ! "$$bin" -version 2>/dev/null | grep -qF "$(STATICCHECK_VERSION)"; then \
			echo "staticcheck: WARNING: $$("$$bin" -version 2>/dev/null) on PATH, CI pins $(STATICCHECK_VERSION) — results may differ"; \
		fi; \
		"$$bin" ./...; \
	fi

# staticcheck-version prints the pin so CI installs the same release the
# Makefile names (single source of truth).
staticcheck-version:
	@echo $(STATICCHECK_VERSION)

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-generic runs the Go code that stands in for amd64 assembly on every
# other architecture (internal/core's peakRow loop, and internal/synth's Go
# exp, which refines without the vector kernel): a GOARCH=386 test binary
# builds them and runs on an amd64 host. The packages are the two
# kernels', and the two that run them end to end; internal/synth checks
# the same pinned digests as on amd64. arm64 is vetted, not run.
test-generic:
	GOARCH=386 $(GO) test ./internal/core ./internal/sim ./internal/synth ./pkg/dcsim
	GOARCH=arm64 $(GO) vet ./...

# test-nofma runs internal/synth with the standard library's math.Exp on
# its path without FMA, as on an amd64 CPU that lacks it: synthesis draws
# through its own exp, so the pinned digests must still hold.
test-nofma:
	GODEBUG=cpu.fma=off $(GO) test ./internal/synth

race:
	$(GO) test -race ./...

# race-parallel runs the packages that split work over GOMAXPROCS under the
# race detector: workload ingest (synthetic refinement, CSV decoding) and
# the simulator's reference measurements. At one CPU they start no
# goroutine; four oversubscribes a small runner's split.
race-parallel:
	$(GO) test -race -cpu 1,4 ./internal/synth ./internal/trace ./internal/tracedir ./internal/objstore ./internal/sim ./pkg/dcsim

bench:
	$(GO) test -bench=. -benchmem .

# fuzz runs the fuzzing engine on every Fuzz* target in the root module for
# 10 s each; `go test ./...` runs only their seed corpora. CI's fuzz job
# runs it.
fuzz:
	./scripts/fuzz.sh

# bench-test vets and tests the end-to-end benchmark module. bench/ is its
# own Go module (replace repro => ../), so the root ./... never compiles
# it, yet it builds against the façade's workload and build APIs. The
# tests are the workload checker, the traced-composition parity test and
# the -quick smoke; no timed benchmark runs.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# leakcheck fails if any exported identifier in pkg/dcsim/... references a
# type from an internal/ package — the public API must speak only
# pkg/dcsim/model, so out-of-tree modules can implement every contract —
# or if a file under internal/ re-exports a model type as `type X = model.Y`
# (internal packages name contract types only as model.X).
leakcheck:
	./scripts/leakcheck.sh

# examples builds every program under examples/ once and runs each with a
# timeout (ablation with -quick). Each example checks its own result — for
# instance, examples/recorded byte-compares a trace-dir sweep run locally
# and through an HTTP worker — and exits non-zero on a mismatch.
examples:
	./scripts/examples.sh

# smoke-service drives the real `dcsim serve` binary end to end on a
# loopback port: submit a grid over HTTP, poll to completion, assert the
# /metrics job counter moved, and require a clean drained exit on SIGINT.
smoke-service:
	./scripts/service_smoke.sh

# smoke-fleet drives the elastic fleet end to end: `dcsim serve -fleet`
# plus three registered workers, one killed -9 mid-job with a replacement
# joining, byte-identical completion against a local sweep, a positive
# dcsim_fleet_runs_stolen_total, and clean SIGINT exits all around; then
# `dcsim sweep -fleet` with two registered workers, its reports
# byte-identical to the local sweep's.
smoke-fleet:
	./scripts/fleet_smoke.sh

# smoke-objstore drives the diskless workload path end to end: a recorded
# trace directory behind `dcsim objserve` (with injected 503s), swept as
# "trace-obj" through a coordinator and two diskless workers, CSV report
# byte-identical to a local trace-dir sweep, and a warm second pass served
# entirely from the chunk cache (0 fetches).
smoke-objstore:
	./scripts/objstore_smoke.sh

# bench-alloc records the allocator scaling trajectory (exact Fig.-2
# semantics up to 2k VMs, blocked evaluation at 1k/2k/10k) plus the
# per-phase attribution rows (matrix-update / fill-scoring /
# placement-total) in BENCH_alloc.json. Set
# ALLOC_CPUPROFILE=<path> to also capture a 2k-VM CPU profile.
bench-alloc:
	./scripts/bench_alloc.sh

# bench-compare fails when the freshly recorded BENCH_alloc.json regresses
# more than BENCH_REGRESS_PCT percent (default 100) against the committed
# baseline, printing the deltas either way. Allocator rows are gated per
# phase (scale / matrix / fill / total), so one phase cannot silently
# regress behind another's improvement. Depends on the recorder so the
# comparison always reads a fresh record, even under `make -j`.
bench-compare: bench-alloc
	./scripts/bench_compare.sh
