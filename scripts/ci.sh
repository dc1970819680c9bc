#!/usr/bin/env bash
# CI gate: formatting, lints, release build, full test suite.
# Run from anywhere; operates on the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings (clippy.toml: only vllm_core::env reads the process environment)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> examples that assert (tensor_parallel: N workers == one worker at 2/4/8; preemption, chatbot_kv_reuse, mixed_decoding)"
for example in tensor_parallel preemption chatbot_kv_reuse mixed_decoding; do
    cargo run --release -q --example "$example" >/dev/null
done

echo "==> figure outputs (the deterministic harnesses that take under a minute, fig16 and fig18b among them for the scheduler's two orderings, rerun into target/figures and compared byte for byte with results/)"
cargo build --release -q -p vllm-bench
mkdir -p target/figures
for b in table1 fig01 fig02 fig11 fig13 fig15 fig16 fig17 fig18b fig19 ablation extension_burstiness extension_h100; do
    ./target/release/"$b" > target/figures/"$b".txt 2>&1
    cmp target/figures/"$b".txt results/"$b".txt
done

echo "==> non-test Rust lines per crate and file (informational)"
scripts/loc.sh || true

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> replica-channel stress (10 000 rounds of concurrent fused submissions racing a replica kill and the frontend's shutdown: every reply sender answered exactly once, no wait past its bound, no block held after the drain)"
cargo test --release -q -p vllm --lib frontend::tests::fused_submissions_race_kill_and_shutdown -- --ignored --exact

echo "==> telemetry consistency check + instrument budget (a decode_heavy step's time outside its four stages, plus the executor's instruments inside its execute stage, plus its op clocks <= 1.5 % of the step, median of paired rounds)"
cargo run --release -q -p vllm-bench --bin telemetry -- --ci

echo "==> cluster routing check + handoff codec gate (binary round trip >= 5x the hex edge on 32 KB and 64 KB blocks, median of paired rounds)"
cargo run --release -q -p vllm-bench --bin cluster -- --ci

echo "==> kernel bench gate (simd batched >= 2x seed; every ISA's GEMM and every ISA's paged attention on both KV elements bit-identical to the portable one, each timed per ISA; simd one-row GEMM >= 1.0x portable and vector GELU >= 4x libm and a top-p row <= 3.5x a greedy one at vocabulary 260 as medians of paired rounds, simd paged attention >= 2x the contiguous oracle at 2k / 1.5x at 32k, >= 3.5x the oracle on the decode_heavy batch as a median of paired rounds, quant-kv8 blocks >= 1.8x simd's at equal bytes)"
cargo run --release -q -p vllm-bench --bin kernels -- --ci

echo "==> fault-injection soak gate (kill/swap-exhaust, zero loss, deterministic)"
cargo run --release -q -p vllm-bench --bin faults -- --ci

echo "==> distributed-tracing gate (well-nested span trees across kill/retry, Perfetto export, span/e2e consistency within 1%, zero span-log drops)"
cargo run --release -q -p vllm-bench --bin trace -- --ci
mkdir -p results
cp target/ci-trace/trace.json target/ci-trace/trace_perfetto.json target/ci-trace/trace_summary.json results/

echo "==> elastic capacity gate (elastic peak batch >= fixed pool at equal budget, simd + quant-kv8, contiguous baseline numbers)"
cargo run --release -q -p vllm-bench --bin elastic -- --ci

echo "==> chunked-prefill gate (mixed-traffic TTFT: short-request p99 halved at equal throughput; chunked vs unchunked bit-identity on simd + quant-kv8; 32k-prompt smoke, zero leaks)"
cargo run --release -q -p vllm-bench --bin prefill -- --ci

echo "==> serving bench tests (the benchmark package's own tests, its traced --quick run among them: tier hit share > 0 on disagg_chat)"
cargo test --release --offline --manifest-path examples/serve_bench/Cargo.toml

echo "==> serving bench smoke (all four workloads over real TCP; output check: batched == solo, swapped == resident, tier-installed == recomputed)"
cargo run --release --offline --quiet --manifest-path examples/serve_bench/Cargo.toml -- --quick

echo "CI OK"
