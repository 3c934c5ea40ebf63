CARGO ?= cargo

.PHONY: verify build test test-scalar clippy fmt perfbench-test bench-discovery bench-smoke serve-smoke trace-smoke chaos-smoke load-smoke fleet-smoke stream-smoke

## Seeds the chaos harness runs at (CI runs all three and uploads the logs).
CHAOS_SEEDS ?= 42 7 1234

## Local verification: CI's build, test, lint and perfbench steps plus the
## serve, fleet and stream smokes, in CI's order (serve-smoke is the one
## smoke that walks every single-server ops route). It omits CI's trace,
## chaos, bench and load smokes (trace-smoke, chaos-smoke, bench-smoke,
## load-smoke); run those targets by name.
verify: build test test-scalar clippy fmt perfbench-test serve-smoke fleet-smoke stream-smoke

build:
	$(CARGO) build --release

test:
	$(CARGO) test -q --workspace

## The tensor suite with SIMD forced off — proves the scalar fallback and
## the env override path on hosts where detection would pick AVX2 (the
## cross-backend bit-identity tests cover the other direction) — plus the
## end-to-end forward pins, which judge the fused eager kernels on the
## scalar backend too.
test-scalar:
	COHORTNET_SIMD=scalar $(CARGO) test -q -p cohortnet-tensor
	COHORTNET_SIMD=scalar $(CARGO) test -q -p cohortnet --test forward_pins --test infer_identity --test quant_snapshot

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

fmt:
	$(CARGO) fmt --all -- --check

## The benchmark (perfbench/, its own workspace) builds against crates/* by
## path: building it and running its unit tests catches an API change that
## would break the benchmark.
perfbench-test:
	$(CARGO) test --release --offline --manifest-path perfbench/Cargo.toml

## Regenerates BENCH_discovery.json (scalability sweeps + threads-vs-speedup
## curve for the discovery pipeline).
bench-discovery:
	COHORTNET_FAST=1 COHORTNET_SCALE=0.5 $(CARGO) run --release -p cohortnet-bench --bin fig13_scalability

## Reduced-config perf smoke: fig13 (discovery + training threads sweeps →
## BENCH_discovery.json) and the GEMM micro-bench (→ BENCH_tensor.json).
## CI uploads both JSON files as artifacts so the perf trajectory is
## recorded per PR.
bench-smoke:
	COHORTNET_FAST=1 COHORTNET_SCALE=0.5 $(CARGO) run --release -p cohortnet-bench --bin fig13_scalability
	COHORTNET_FAST=1 $(CARGO) run --release -p cohortnet-bench --bin tensor_gemm
	COHORTNET_FAST=1 $(CARGO) run --release -p cohortnet-bench --bin obs_overhead

## End-to-end serving smoke: trains a tiny model, writes a snapshot, starts
## the HTTP server, exercises /score (asserting batch-composition
## bit-identity), /explain, /cohorts, /healthz and /metrics, then drains.
serve-smoke:
	$(CARGO) run --release -p cohortnet-serve --bin serve-smoke

## Seeded fault-injection run: reference pass, then a chaos pass injecting
## worker panics, scoring latency, queue rejection, snapshot corruption and
## client-side request mutations. Asserts zero hangs, zero unhandled panics
## and bit-identical non-faulted scores; writes target/CHAOS_RUN_<seed>.log
## per seed (uploaded by CI as an artifact).
chaos-smoke:
	for seed in $(CHAOS_SEEDS); do \
		$(CARGO) run --release -p cohortnet-serve --bin chaos-smoke -- $$seed || exit 1; \
	done

## Open-loop serving load smoke: seeded Poisson arrivals against the
## event-loop server — 1000 keep-alive connections on /score plus a
## keep-alive vs close-per-request comparison at equal concurrency —
## merging sustained rps / p50 / p99 / error rates into the "open_loop"
## section of BENCH_serve.json (uploaded by CI with the bench artifacts).
load-smoke:
	COHORTNET_FAST=1 $(CARGO) run --release -p cohortnet-bench --bin serve_load

## Fleet acceptance smoke: boots a 3-replica router on the demo model and
## proves (in release mode, open-loop load on 1000 connections) that a
## mid-run snapshot hot-swap and a chaos replica kill complete with zero
## dropped and zero non-2xx requests, canary bit-identity before the flip,
## and post-swap scores bit-identical to a cold server — plus rejection of
## a poisoned artifact and a live f32 -> int8 scheme swap. Narration goes
## to target/FLEET_SMOKE.log and the runs merge into the "fleet" section
## of BENCH_serve.json (both uploaded by CI).
fleet-smoke:
	COHORTNET_FAST=1 $(CARGO) run --release -p cohortnet-bench --bin fleet_smoke

## Streaming ingestion smoke: boots a --stream server on the demo model and
## proves prefix identity over HTTP (chunked /ingest replay byte-equal to
## the batch oracle), a clean open-loop /ingest replay across concurrent
## sessions (zero drops, zero non-2xx, staleness histogram populated), and
## that incremental cohort-index probing beats a from-scratch re-probe at
## every prefix. Narration goes to target/STREAM_SMOKE.log and the runs
## merge into the "stream" section of BENCH_serve.json (both uploaded by
## CI).
stream-smoke:
	COHORTNET_FAST=1 $(CARGO) run --release -p cohortnet-bench --bin stream_smoke

## Span-tracing smoke: trains a tiny pipeline with COHORTNET_TRACE set,
## then asserts trace.json is valid Chrome trace event JSON containing the
## expected stage spans (MFLM/CDM/CRLM/CEM + sub-stages). CI uploads the
## trace as an artifact.
trace-smoke:
	COHORTNET_TRACE=trace.json $(CARGO) run --release -p cohortnet-bench --bin trace_smoke
