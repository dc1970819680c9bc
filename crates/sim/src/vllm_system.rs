//! The vLLM side of the simulation: the *real* engine (scheduler, block
//! manager, copy-on-write, preemption, beam planner) driven by a cost-model
//! executor that scripts token values and models iteration latency.
//!
//! Memory behaviour is therefore exact — every block allocation, fork,
//! copy-on-write and swap happens in the same code the numeric backend
//! uses — and only the iteration *duration* is modeled.

use vllm_baselines::types::{
    BatchSystem, FinishedRequest, MemorySnapshot, SimRequest, StepWork, SystemExtra, SystemStep,
};
use vllm_core::config::{CacheConfig, PreemptionMode, SchedulerConfig};
use vllm_core::engine::LlmEngine;
use vllm_core::error::Result;
use vllm_core::executor::{KernelTiming, ModelExecutor, SeqStepOutput, StepResult};
use vllm_core::plan::StepPlan;
use vllm_core::sampling::{SamplingParams, TokenId};
use vllm_core::sequence::SequenceStatus;

use crate::cost::CostModel;
use crate::gpu::ServerConfig;

/// Vocabulary used for scripted tokens.
const SIM_VOCAB: u64 = 50_000;

fn hash3(a: u64, b: u64, c: u64) -> u64 {
    let mut z = a ^ b.rotate_left(21) ^ c.rotate_left(43) ^ 0x9e37_79b9_7f4a_7c15;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic prompt tokens for a simulated request.
#[must_use]
pub fn sim_prompt_tokens(request_id: u64, len: usize) -> Vec<TokenId> {
    (0..len as u64)
        .map(|i| (hash3(request_id, i, 7) % SIM_VOCAB) as TokenId)
        .collect()
}

/// Cached telemetry handles for the simulated executor.
#[derive(Debug, Clone)]
struct SimExecutorTelemetry {
    forward_seconds: vllm_telemetry::Histogram,
    tokens_total: vllm_telemetry::Counter,
    steps_total: vllm_telemetry::Counter,
}

/// Executor that models latency and scripts token values.
#[derive(Debug)]
pub struct SimExecutor {
    /// The latency model.
    pub cost: CostModel,
    /// Work content of the most recent step (inspected by the adapter).
    pub last_work: StepWork,
    /// Cumulative modeled GPU time.
    pub busy_time: f64,
    telemetry: Option<SimExecutorTelemetry>,
}

impl SimExecutor {
    /// Creates an executor over a cost model.
    #[must_use]
    pub fn new(cost: CostModel) -> Self {
        Self {
            cost,
            last_work: StepWork::default(),
            busy_time: 0.0,
            telemetry: None,
        }
    }
}

impl ModelExecutor for SimExecutor {
    fn begin_step(&mut self, plan: &StepPlan) -> Result<StepResult> {
        let mut work = StepWork::default();
        // Chunked-prefill plans mix prompt chunks with decode items, so the
        // step-wide `is_prompt_run` flag no longer classifies items; charge
        // each item by its own shape (a chunk costs only its new rows, not
        // the whole prompt). Plans without chunks keep the legacy step-wide
        // classification bit-for-bit.
        let has_chunks = plan.items.iter().any(|item| item.chunked);
        for item in &plan.items {
            let suffix = item.num_new_tokens();
            let is_prefill = if has_chunks {
                item.chunked || suffix > 1
            } else {
                plan.is_prompt_run
            };
            if is_prefill {
                work.prefill_tokens.push(suffix);
                if has_chunks {
                    // Charge chunk rows against the context they attend to
                    // (legacy plans keep the n × n convention untouched).
                    work.prefill_contexts.push(item.tokens.len());
                }
            } else {
                work.decode_contexts.push(item.context_len());
            }
        }
        // Defragmentation migrations cost one block copy each, same as CoW.
        work.copied_tokens =
            (plan.cache_ops.copies.len() + plan.cache_ops.moves.len()) * plan.block_size;
        // KV-handoff installs move one block over the interconnect each,
        // modeled at swap-transfer cost.
        work.swapped_blocks = plan.cache_ops.swap_in.len()
            + plan.cache_ops.swap_out.len()
            + plan.cache_ops.installs.len();
        let elapsed = self.cost.step_latency(&work);
        self.busy_time += elapsed;

        let outputs = plan
            .items
            .iter()
            .map(|item| {
                let pos = item.context_len() as u64;
                let mut candidates: Vec<(TokenId, f32)> = (0..item.num_candidates as u64)
                    .map(|c| {
                        let token = (hash3(item.seq_id, pos, c) % SIM_VOCAB) as TokenId;
                        // Pseudo-random candidate scores drive realistic
                        // beam reshuffling (Fig. 9 dynamics).
                        let u = (hash3(item.seq_id ^ 0xabcd, pos, c) % 10_000) as f32 / 10_000.0;
                        (token, -0.05 - 2.0 * u * u)
                    })
                    .collect();
                candidates.sort_by(|a, b| b.1.total_cmp(&a.1));
                SeqStepOutput {
                    seq_id: item.seq_id,
                    candidates,
                }
            })
            .collect();
        self.last_work = work;
        if let Some(t) = &self.telemetry {
            t.forward_seconds.observe(elapsed);
            t.tokens_total.inc_by(plan.num_tokens() as u64);
            t.steps_total.inc();
        }
        Ok(StepResult {
            outputs,
            elapsed,
            kernels: vec![KernelTiming {
                name: "forward".to_string(),
                seconds: elapsed,
            }],
        })
    }

    fn attach_telemetry(&mut self, telemetry: &std::sync::Arc<vllm_telemetry::Telemetry>) {
        let r = telemetry.registry();
        self.telemetry = Some(SimExecutorTelemetry {
            forward_seconds: r.histogram(
                "vllm_executor_forward_seconds",
                "Modeled GPU time per executed step (simulated backend).",
                vllm_telemetry::BucketSpec::seconds(),
            ),
            tokens_total: r.counter(
                "vllm_executor_tokens_total",
                "Tokens run through the model executor.",
            ),
            steps_total: r.counter(
                "vllm_executor_steps_total",
                "Iterations executed by the model executor.",
            ),
        });
    }

    fn backend_label(&self) -> &str {
        "sim"
    }
}

/// vLLM under simulation: the real engine behind the [`BatchSystem`] driver
/// interface.
#[derive(Debug)]
pub struct VllmSimSystem {
    engine: LlmEngine<SimExecutor>,
    label: String,
    /// Tokens every incoming prompt starts with (§6.4 translation
    /// workload); requests are built as `prefix + per-request tokens`.
    shared_prefix: Vec<TokenId>,
}

impl VllmSimSystem {
    /// Builds a simulated vLLM server for a Table 1 configuration.
    ///
    /// The CPU swap pool is sized at the GPU pool (the §4.5 bound makes a
    /// larger pool pointless).
    ///
    /// # Panics
    ///
    /// Panics if the configuration yields no KV blocks.
    #[must_use]
    pub fn new(server: ServerConfig, block_size: usize, preemption: PreemptionMode) -> Self {
        Self::with_watermark(
            server,
            block_size,
            preemption,
            vllm_core::config::DEFAULT_WATERMARK,
        )
    }

    /// Builds a simulated vLLM server with a custom admission watermark
    /// (ablation; see `CacheConfig::watermark`).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn with_watermark(
        server: ServerConfig,
        block_size: usize,
        preemption: PreemptionMode,
        watermark: f64,
    ) -> Self {
        Self::with_options(
            server,
            block_size,
            preemption,
            watermark,
            vllm_core::config::VictimPolicy::LatestArrival,
        )
    }

    /// Builds a simulated vLLM server with every scheduler knob exposed
    /// (watermark and preemption-victim policy ablations).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn with_options(
        server: ServerConfig,
        block_size: usize,
        preemption: PreemptionMode,
        watermark: f64,
        victim_policy: vllm_core::config::VictimPolicy,
    ) -> Self {
        let num_blocks = server.num_gpu_blocks(block_size);
        let cache = CacheConfig::new(block_size, num_blocks, num_blocks)
            .expect("valid cache config")
            .with_watermark(watermark)
            .expect("valid watermark");
        let max_len = server.model.max_len;
        let sched = SchedulerConfig::new(max_len.max(2560), 256, max_len)
            .expect("valid scheduler config")
            .with_preemption_mode(preemption)
            .with_victim_policy(victim_policy);
        let exec = SimExecutor::new(CostModel::paged(server, block_size));
        Self {
            engine: LlmEngine::new(exec, cache, sched),
            label: "vLLM".to_string(),
            shared_prefix: Vec::new(),
        }
    }

    /// Overrides the display label (ablation runs).
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Disables block sharing between forked sequences (ablation): forks
    /// copy blocks eagerly, as a contiguous-KV system must.
    #[must_use]
    pub fn without_sharing(mut self) -> Self {
        self.engine.set_block_sharing(false);
        self.label = "vLLM (no sharing)".to_string();
        self
    }

    /// Enables scheduler-budgeted chunked prefill: each step carries at most
    /// `budget` prompt tokens on top of the running decodes, so long prompts
    /// stream in as chunks instead of monopolizing whole iterations.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is zero.
    #[must_use]
    pub fn with_chunked_prefill(mut self, budget: usize) -> Self {
        assert!(budget > 0, "step token budget must be positive");
        self.engine.set_step_token_budget(Some(budget));
        self.label = "vLLM (chunked)".to_string();
        self
    }

    /// Turns the fixed pool into an elastic one: the GPU pool starts
    /// deflated at `min_fraction` of the configured budget and an
    /// [`vllm_core::elastic::ElasticController`] inflates/deflates it
    /// between that floor and the full budget as pressure shifts.
    ///
    /// # Panics
    ///
    /// Panics if `min_fraction` yields an invalid elastic band.
    #[must_use]
    pub fn with_elastic(mut self, min_fraction: f64) -> Self {
        use vllm_core::elastic::{ElasticConfig, ElasticController};
        let total = self.engine.cache_config().num_gpu_blocks;
        let cpu = self.engine.cache_config().num_cpu_blocks;
        let min = ((total as f64 * min_fraction.clamp(0.0, 1.0)) as usize).max(1);
        let cfg = ElasticConfig::new(min, total).expect("valid elastic band");
        self.engine
            .resize_pools(min, cpu)
            .expect("deflate fresh pool");
        self.engine.set_elastic(Some(ElasticController::new(cfg)));
        self.label = "vLLM (elastic)".to_string();
        self
    }

    /// The wrapped engine (metrics, prefix registration).
    #[must_use]
    pub fn engine(&self) -> &LlmEngine<SimExecutor> {
        &self.engine
    }

    /// The wrapped engine, mutably.
    pub fn engine_mut(&mut self) -> &mut LlmEngine<SimExecutor> {
        &mut self.engine
    }

    /// Warms the block cache with a shared prefix (§6.4 experiments).
    ///
    /// # Panics
    ///
    /// Panics if the prefix does not fit the free pool.
    pub fn register_prefix(&mut self, tokens: &[TokenId]) {
        self.engine.register_prefix(tokens).expect("prefix fits");
    }

    /// Makes every future request's prompt start with `tokens`. When
    /// `cached` is true the prefix is also warmed into the block cache, so
    /// requests share its blocks and skip its prefill from the first one on
    /// (§6.4); when false, block caching is switched off and the same
    /// workload is measured without the optimization.
    pub fn set_shared_prefix(&mut self, tokens: Vec<TokenId>, cached: bool) {
        if cached {
            self.register_prefix(&tokens);
        } else {
            self.engine.set_auto_prefix_match(false);
        }
        self.shared_prefix = tokens;
    }
}

impl BatchSystem for VllmSimSystem {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn enqueue(&mut self, req: SimRequest) {
        let mut params = if req.is_beam {
            SamplingParams::beam(req.n_seqs, req.output_len)
        } else if req.n_seqs > 1 {
            SamplingParams::parallel(req.n_seqs, req.output_len)
        } else {
            SamplingParams::greedy(req.output_len)
        };
        params = params.with_ignore_eos().with_seed(req.id);
        let prompt = if self.shared_prefix.is_empty() {
            sim_prompt_tokens(req.id, req.prompt_len)
        } else {
            // `prompt_len` covers prefix + task input (§6.4 traces).
            let task_len = req
                .prompt_len
                .saturating_sub(self.shared_prefix.len())
                .max(1);
            let mut p = self.shared_prefix.clone();
            p.extend(sim_prompt_tokens(req.id, task_len));
            p
        };
        self.engine
            .add_request_at(req.id.to_string(), prompt, params, req.arrival)
            .expect("valid request");
    }

    fn step(&mut self, now: f64, _cost: &mut dyn FnMut(&StepWork) -> f64) -> Option<SystemStep> {
        if !self.engine.has_unfinished() {
            return None;
        }
        self.engine.advance_clock_to(now);
        let before = self.engine.clock();
        let outs = self.engine.step().expect("engine step");
        let elapsed = self.engine.clock() - before;
        let finished = outs
            .into_iter()
            .map(|o| FinishedRequest {
                id: o.request_id.parse().unwrap_or(u64::MAX),
                arrival: o.arrival_time,
                finish: o.finish_time,
                output_len: o.mean_output_len().round() as usize,
            })
            .collect();
        Some(SystemStep {
            elapsed,
            finished,
            work: self.engine.executor().last_work.clone(),
        })
    }

    fn memory_snapshot(&self) -> MemorySnapshot {
        let bm = self.engine.scheduler().block_manager();
        let bs = bm.block_size();
        let seqs = self
            .engine
            .scheduler()
            .running_groups()
            .iter()
            .flat_map(|g| g.seqs().into_iter());
        let used = bm.used_gpu_slots(seqs);
        let capacity = bm.num_total_gpu_blocks() * bs;
        let allocated = bm.num_allocated_gpu_blocks() * bs;
        MemorySnapshot {
            used,
            reserved: 0,
            internal_frag: allocated.saturating_sub(used),
            external_frag: 0,
            free: capacity - allocated,
            capacity,
        }
    }

    fn num_running_requests(&self) -> usize {
        self.engine.scheduler().num_running()
    }

    fn num_running_seqs(&self) -> usize {
        self.engine
            .scheduler()
            .running_groups()
            .iter()
            .map(|g| g.seqs_with_status(SequenceStatus::Running).len())
            .sum()
    }

    fn has_unfinished(&self) -> bool {
        self.engine.has_unfinished()
    }

    fn extra(&self) -> SystemExtra {
        let stats = self.engine.scheduler().stats();
        SystemExtra {
            preemptions: stats.num_preemptions,
            swap_preemptions: stats.num_swap_preemptions,
            recompute_preemptions: stats.num_recompute_preemptions,
            sharing_savings: self.engine.scheduler().block_manager().sharing_savings(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_server() -> ServerConfig {
        // Shrink the real config so tests run fast.
        let mut cfg = ServerConfig::opt_13b_1gpu();
        cfg.gpu.mem_bytes_per_gpu = 28.5e9; // ~1.3K KV slots.
        cfg
    }

    #[test]
    fn single_request_completes() {
        let mut sys = VllmSimSystem::new(small_server(), 16, PreemptionMode::Recompute);
        sys.enqueue(SimRequest::basic(0, 0.0, 100, 20));
        let mut cost = |_: &StepWork| 0.0;
        let mut now = 0.0;
        let mut finished = Vec::new();
        while sys.has_unfinished() {
            let step = sys.step(now, &mut cost).expect("work pending");
            now += step.elapsed;
            finished.extend(step.finished);
        }
        assert_eq!(finished.len(), 1);
        assert_eq!(finished[0].output_len, 20);
        assert!(finished[0].finish > 0.0);
        // Pool drained.
        assert_eq!(sys.memory_snapshot().free, sys.memory_snapshot().capacity);
    }

    #[test]
    fn beam_request_shares_blocks() {
        let mut sys = VllmSimSystem::new(small_server(), 16, PreemptionMode::Swap);
        sys.enqueue(SimRequest {
            id: 0,
            arrival: 0.0,
            prompt_len: 200,
            output_len: 40,
            n_seqs: 4,
            is_beam: true,
        });
        let mut cost = |_: &StepWork| 0.0;
        let mut now = 0.0;
        let mut max_sharing = 0.0f64;
        while sys.has_unfinished() {
            let step = sys.step(now, &mut cost).expect("work pending");
            now += step.elapsed;
            max_sharing = max_sharing.max(sys.extra().sharing_savings);
        }
        // 4 beams over a 200-token shared prompt: strong sharing.
        assert!(max_sharing > 0.4, "sharing {max_sharing}");
    }

    #[test]
    fn overload_triggers_preemption() {
        let mut sys = VllmSimSystem::new(small_server(), 16, PreemptionMode::Recompute);
        // ~1.6K slots; 8 requests of 190+1500 ≈ 13K slots needed.
        for i in 0..8 {
            sys.enqueue(SimRequest::basic(i, 0.0, 190, 1500));
        }
        let mut cost = |_: &StepWork| 0.0;
        let mut now = 0.0;
        let mut finished = 0;
        while sys.has_unfinished() {
            let step = sys.step(now, &mut cost).expect("work pending");
            now += step.elapsed.max(1e-9);
            finished += step.finished.len();
        }
        assert_eq!(finished, 8, "all requests must eventually finish");
        assert!(sys.extra().preemptions > 0, "overload must preempt");
    }

    #[test]
    fn chunked_prefill_long_prompt_completes() {
        let mut sys = VllmSimSystem::new(small_server(), 16, PreemptionMode::Recompute)
            .with_chunked_prefill(128);
        sys.enqueue(SimRequest::basic(0, 0.0, 1000, 10));
        let mut cost = |_: &StepWork| 0.0;
        let mut now = 0.0;
        let mut finished = Vec::new();
        let mut prefill_steps = 0;
        while sys.has_unfinished() {
            let step = sys.step(now, &mut cost).expect("work pending");
            if !step.work.prefill_tokens.is_empty() {
                prefill_steps += 1;
                // Each step's prompt work respects the 128-token budget.
                assert!(step.work.prefill_tokens.iter().sum::<usize>() <= 128);
            }
            now += step.elapsed.max(1e-9);
            finished.extend(step.finished);
        }
        assert_eq!(finished.len(), 1);
        assert_eq!(finished[0].output_len, 10);
        assert_eq!(prefill_steps, 1000usize.div_ceil(128));
        // Pool drained: no leaked blocks after the chunked prefill.
        assert_eq!(sys.memory_snapshot().free, sys.memory_snapshot().capacity);
    }

    #[test]
    fn chunked_prefill_interleaves_decodes_with_chunks() {
        // A short request admitted first keeps decoding while a long
        // prompt's chunks stream in behind it.
        let mut sys = VllmSimSystem::new(small_server(), 16, PreemptionMode::Recompute)
            .with_chunked_prefill(64);
        sys.enqueue(SimRequest::basic(0, 0.0, 32, 200));
        sys.enqueue(SimRequest::basic(1, 0.0, 600, 10));
        let mut cost = |_: &StepWork| 0.0;
        let mut now = 0.0;
        let mut mixed_steps = 0;
        let mut finished = 0;
        while sys.has_unfinished() {
            let step = sys.step(now, &mut cost).expect("work pending");
            if !step.work.prefill_tokens.is_empty() && !step.work.decode_contexts.is_empty() {
                mixed_steps += 1;
            }
            now += step.elapsed.max(1e-9);
            finished += step.finished.len();
        }
        assert_eq!(finished, 2);
        assert!(mixed_steps > 0, "chunks must co-batch with decodes");
        assert_eq!(sys.memory_snapshot().free, sys.memory_snapshot().capacity);
    }

    #[test]
    fn prompt_tokens_deterministic() {
        assert_eq!(sim_prompt_tokens(5, 32), sim_prompt_tokens(5, 32));
        assert_ne!(sim_prompt_tokens(5, 32), sim_prompt_tokens(6, 32));
    }
}
