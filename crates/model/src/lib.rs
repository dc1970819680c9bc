//! # vllm-model
//!
//! The numeric substrate of the PagedAttention reproduction: a pure-Rust
//! CPU transformer (§2.1) with paged KV storage (§4.2), real PagedAttention
//! kernels (§4.1, §5.1), sampling/beam candidate extraction, and the
//! executor that plugs them into [`vllm_core::LlmEngine`], over one worker
//! or N Megatron-style tensor-parallel ones (§4.6).
//!
//! # Examples
//!
//! ```
//! use vllm_core::{CacheConfig, LlmEngine, SamplingParams, SchedulerConfig};
//! use vllm_model::{CpuModelExecutor, ModelConfig};
//!
//! let cache = CacheConfig::new(4, 64, 64).unwrap();
//! let sched = SchedulerConfig::new(512, 16, 512).unwrap();
//! let exec = CpuModelExecutor::from_config(ModelConfig::tiny(), &cache);
//! let mut engine = LlmEngine::new(exec, cache, sched);
//! engine.add_request("r0", vec![1, 2, 3], SamplingParams::greedy(4)).unwrap();
//! let outputs = engine.run_to_completion().unwrap();
//! assert_eq!(outputs[0].outputs[0].tokens.len(), 4);
//! ```

#![warn(missing_docs)]

pub mod attention;
pub mod backend;
pub mod bpe;
pub mod checkpoint;
pub mod config;
pub mod executor;
pub mod gemm;
pub mod isa;
pub mod kv_cache;
pub mod ops;
pub mod pool;
pub mod sampler;
pub mod tokenizer;
pub mod transformer;

pub use attention::{contiguous_attention_decode, contiguous_causal_attention, SeqRows};
pub use backend::{BackendKind, KernelBackend, KvElement, KvLayout};
pub use bpe::BpeTokenizer;
pub use checkpoint::{load as load_checkpoint, save as save_checkpoint, CheckpointError};
pub use config::{ModelConfig, PositionEncoding};
pub use executor::CpuModelExecutor;
pub use gemm::Panels;
pub use isa::Isa;
pub use kv_cache::{KvCache, KvPool, KvTile};
pub use pool::WorkerPool;
pub use sampler::{mix_seed, sample_candidates, Sampler};
pub use tokenizer::{ByteTokenizer, BOS, EOS, PAD, VOCAB_SIZE};
pub use transformer::{LayerShard, LayerWeights, SeqInput, Transformer};
