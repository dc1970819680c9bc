//! # vllm-sim
//!
//! A discrete-event simulator of the paper's serving testbed (Table 1):
//! A100 server profiles, an analytic per-iteration latency model (weight
//! read, KV read with paged-kernel overhead, compute, all-reduce, PCIe
//! swaps), the *real* vLLM engine driven by a cost-model executor, and a
//! trace driver that aggregates the evaluation's metrics.
//!
//! Memory behaviour in the vLLM path is exact — the same scheduler and
//! block manager as the numeric backend — so capacity effects (who fits how
//! many requests) are reproduced faithfully; only iteration duration is
//! modeled. See DESIGN.md for the substitution argument.

#![warn(missing_docs)]

pub mod cost;
pub mod driver;
pub mod gpu;
pub mod vllm_system;

pub use cost::{CostModel, FIXED_STEP_OVERHEAD, PAGED_KERNEL_OVERHEAD};
pub use driver::{
    run_trace, run_trace_instrumented, run_trace_with_timeline, trace_to_requests, MemFractions,
    RunReport, TimelinePoint,
};
pub use gpu::{
    a100_40g, a100_80g, h100_80g, llama_13b, opt_13b, opt_175b, opt_66b, GpuSpec, ModelProfile,
    ServerConfig, ACTIVATION_RESERVE_FRACTION,
};
pub use vllm_system::{sim_engine_parts, sim_prompt_tokens, SimExecutor, VllmSimSystem};
