//! # vllm-core
//!
//! Core of a Rust reproduction of *Efficient Memory Management for Large
//! Language Model Serving with PagedAttention* (SOSP 2023): block-level KV
//! cache management (block tables, reference counting, copy-on-write),
//! iteration-level FCFS scheduling with all-or-nothing preemption (swapping
//! or recomputation), decoding algorithms (greedy, sampling, parallel
//! sampling, beam search, shared prefixes), and the serving engine that ties
//! them to a pluggable model executor.
//!
//! The numeric CPU transformer backend lives in `vllm-model`; the
//! discrete-event serving simulator lives in `vllm-sim`; contiguous-KV
//! baselines (Orca, FasterTransformer) live in `vllm-baselines`.
//!
//! # Examples
//!
//! Allocate, fork, and copy-on-write KV blocks directly:
//!
//! ```
//! use vllm_core::{BlockSpaceManager, CacheConfig, SamplingParams, Sequence, SequenceGroup};
//!
//! let cfg = CacheConfig::new(16, 64, 0).unwrap();
//! let mut manager = BlockSpaceManager::new(&cfg);
//! let seq = Sequence::new(0, (0..20).collect(), cfg.block_size);
//! let group = SequenceGroup::new("r0", seq, SamplingParams::greedy(8), 0.0);
//! manager.allocate(&group).unwrap();
//! assert_eq!(manager.block_table(0).unwrap().len(), 2);
//! ```

#![warn(missing_docs)]

pub mod beam;
pub mod block;
pub mod block_manager;
pub mod config;
pub mod elastic;
pub mod engine;
pub mod error;
pub mod executor;
pub mod fault;
pub mod handoff;
pub mod metrics;
pub mod mock;
pub mod plan;
pub mod postprocess;
pub mod prefix;
pub mod request;
pub mod sampling;
pub mod scheduler;
pub mod sequence;

pub use beam::{plan_beam_step, BeamExtension, BeamInput, BeamPlan};
pub use block::{BlockAllocator, Device, PhysicalBlock, PhysicalBlockId};
pub use block_manager::{AllocStatus, BlockCopy, BlockManagerMetrics, BlockSpaceManager};
pub use config::{CacheConfig, PreemptionMode, SchedulerConfig, VictimPolicy, DEFAULT_BLOCK_SIZE};
pub use elastic::{ElasticAction, ElasticConfig, ElasticController, PoolPressure};
pub use engine::{CompletionOutput, EngineLoad, LlmEngine, RequestOutput};
pub use error::{ErrorKind, Result, VllmError};
pub use executor::{BlockMove, CacheOps, ModelExecutor, SeqStepInput, SeqStepOutput, StepResult};
pub use fault::{FaultControls, FaultInjector};
pub use handoff::{HandoffPayload, KvBlockBytes, KvBlockInstall};
pub use metrics::{
    EngineMetrics, LatencyTracker, MemoryStats, RequestLatency, StepSnapshot, TraceStats,
};
pub use plan::{
    materialize_batch, PreemptionEvent, PreemptionKind, StageTimings, StepBudget, StepPlan,
    StepTrace,
};
pub use prefix::chunk_hashes;
pub use request::{GenerationMode, GenerationRequest};
pub use sampling::{DecodingMode, SamplingParams, TokenId};
pub use scheduler::{ScheduledGroup, Scheduler, SchedulerMetrics, SchedulerStats};
pub use sequence::{SeqId, Sequence, SequenceData, SequenceGroup, SequenceStatus};

/// The telemetry subsystem (re-exported from `vllm-telemetry`): metrics
/// registry, lifecycle event log, and text/JSON exposition.
pub use vllm_telemetry as telemetry;
