#!/usr/bin/env bash
# CI gate: formatting, lints, release build, full test suite.
# Run from anywhere; operates on the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> non-test Rust lines per crate and file (informational)"
scripts/loc.sh || true

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> telemetry consistency check"
cargo run --release -q -p vllm-bench --bin telemetry -- --ci

echo "==> cluster routing check"
cargo run --release -q -p vllm-bench --bin cluster -- --ci

echo "==> kernel bench gate (all backends: batched >= 2x seed, simd GEMM >= 1.3x scalar and vector GELU >= 4x libm as medians of paired rounds, simd paged attention >= 2x the contiguous oracle at 2k / 1.5x at 32k, >= 1.15x scalar at both, >= 3.5x the oracle on the decode_heavy batch as a median of paired rounds, quant-kv8 blocks >= 1.8x at equal bytes)"
cargo run --release -q -p vllm-bench --bin kernels -- --ci

echo "==> fault-injection soak gate (kill/swap-exhaust, zero loss, deterministic)"
cargo run --release -q -p vllm-bench --bin faults -- --ci

echo "==> distributed-tracing gate (well-nested span trees across kill/retry, Perfetto export, span/e2e consistency within 1%, zero span-log drops)"
cargo run --release -q -p vllm-bench --bin trace -- --ci
mkdir -p results
cp target/ci-trace/trace.json target/ci-trace/trace_perfetto.json target/ci-trace/trace_summary.json results/

echo "==> elastic capacity gate (elastic peak batch >= fixed pool at equal budget, scalar + quant-kv8, contiguous baseline numbers)"
cargo run --release -q -p vllm-bench --bin elastic -- --ci

echo "==> chunked-prefill gate (mixed-traffic TTFT: short-request p99 halved at equal throughput; chunked vs unchunked bit-identity on all backends; 32k-prompt smoke, zero leaks)"
cargo run --release -q -p vllm-bench --bin prefill -- --ci

echo "==> serving bench smoke (all four workloads over real TCP; output check: batched == solo, swapped == resident, tier-installed == recomputed)"
cargo run --release --offline --quiet --manifest-path examples/serve_bench/Cargo.toml -- --quick

echo "CI OK"
