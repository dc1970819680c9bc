//! The KV cache manager: logical→physical block mapping, copy-on-write
//! sharing, and swap in/out (§4.2–§4.5).
//!
//! Each sequence owns a *block table* mapping its logical KV blocks (filled
//! left to right) to physical blocks in the GPU pool, or in the CPU pool
//! while swapped out. Physical blocks are reference counted; writing into a
//! block shared by several sequences triggers a block-granularity
//! copy-on-write (Fig. 8).
//!
//! A *full, computed* GPU block is immutable, so any number of tables may
//! point at it (§4.4). The manager indexes every such block by the hash of
//! the token prefix it completes, and the allocator lets a block keep that
//! hash after its last reference is gone, until the block is handed out
//! again. A cached block is therefore simply a free block: admission
//! ([`BlockSpaceManager::allocate`]) maps the longest indexed run of a
//! prompt's leading blocks and reports how many tokens that skips, and
//! reference counts plus free-list order are the only lifetime rule — there
//! is nothing to pin, release or evict by hand.

use std::collections::HashMap;

use crate::block::{BlockAllocator, Device, PhysicalBlock, PhysicalBlockId};
use crate::config::CacheConfig;
use crate::error::{Result, VllmError};
use crate::executor::{BlockMove, CacheOps};
use crate::prefix::{extend_hash, ROOT_HASH};
use crate::sampling::TokenId;
use crate::sequence::{SeqId, Sequence, SequenceGroup, SequenceStatus};

/// Outcome of an admission check for a waiting group (§4.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocStatus {
    /// Enough free blocks right now.
    Ok,
    /// Not enough free blocks now, but the request can fit once memory frees.
    Later,
    /// The request can never fit (prompt larger than the whole pool).
    Never,
}

/// A pending block-to-block data movement the executor must perform before
/// running the step: copy-on-write copies and swap transfers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockCopy {
    /// Source physical block.
    pub src: PhysicalBlockId,
    /// Destination physical block.
    pub dst: PhysicalBlockId,
}

/// Cached telemetry handles for the block manager's pool gauges and
/// data-movement counters; registered once, updated every step via
/// [`BlockSpaceManager::publish_metrics`].
#[derive(Debug, Clone)]
pub struct BlockManagerMetrics {
    /// `vllm_block_manager_gpu_blocks_free` gauge.
    pub gpu_blocks_free: vllm_telemetry::Gauge,
    /// `vllm_block_manager_gpu_blocks_used` gauge.
    pub gpu_blocks_used: vllm_telemetry::Gauge,
    /// `vllm_block_manager_gpu_blocks_total` gauge.
    pub gpu_blocks_total: vllm_telemetry::Gauge,
    /// `vllm_block_manager_cpu_blocks_free` gauge.
    pub cpu_blocks_free: vllm_telemetry::Gauge,
    /// `vllm_block_manager_logical_blocks` gauge.
    pub logical_blocks: vllm_telemetry::Gauge,
    /// `vllm_block_manager_fragmentation_ratio` gauge: fraction of allocated
    /// KV slots not holding token state (internal fragmentation, Fig. 2).
    pub fragmentation_ratio: vllm_telemetry::Gauge,
    /// `vllm_block_manager_sharing_savings` gauge (Fig. 15).
    pub sharing_savings: vllm_telemetry::Gauge,
    /// `vllm_block_manager_cow_copies_total` counter.
    pub cow_copies_total: vllm_telemetry::Counter,
    /// `vllm_block_manager_swapped_out_blocks_total` counter.
    pub swapped_out_blocks_total: vllm_telemetry::Counter,
    /// `vllm_block_manager_swapped_in_blocks_total` counter.
    pub swapped_in_blocks_total: vllm_telemetry::Counter,
    /// `vllm_block_pool_gpu_blocks` gauge: current (elastic) GPU pool size.
    pub pool_gpu_blocks: vllm_telemetry::Gauge,
    /// `vllm_block_pool_cpu_blocks` gauge: current (elastic) CPU pool size.
    pub pool_cpu_blocks: vllm_telemetry::Gauge,
    /// `vllm_block_pool_fragmentation_ratio` gauge: fraction of the live
    /// GPU-pool span (ids up to the highest live block) that is free holes —
    /// the compaction debt a shrink would have to migrate away.
    pub pool_fragmentation_ratio: vllm_telemetry::Gauge,
    /// `vllm_block_migrations_total` counter.
    pub block_migrations_total: vllm_telemetry::Counter,
    /// `vllm_block_manager_gpu_blocks_cached_free` gauge: free GPU blocks
    /// that still hold indexed content (cached and evictable).
    pub gpu_blocks_cached_free: vllm_telemetry::Gauge,
    /// `vllm_cache_prefix_lookup_tokens_total` counter: prompt tokens of
    /// admissions that looked the block index up.
    pub prefix_lookup_tokens_total: vllm_telemetry::Counter,
    /// `vllm_cache_prefix_hit_tokens_total` counter: the tokens of those
    /// prompts found in the index (their prefill was skipped).
    pub prefix_hit_tokens_total: vllm_telemetry::Counter,
}

impl BlockManagerMetrics {
    /// Registers the block manager's instruments in `telemetry`.
    #[must_use]
    pub fn register(telemetry: &vllm_telemetry::Telemetry) -> Self {
        let r = telemetry.registry();
        Self {
            gpu_blocks_free: r.gauge(
                "vllm_block_manager_gpu_blocks_free",
                "Free blocks in the GPU KV pool.",
            ),
            gpu_blocks_used: r.gauge(
                "vllm_block_manager_gpu_blocks_used",
                "Allocated blocks in the GPU KV pool.",
            ),
            gpu_blocks_total: r.gauge(
                "vllm_block_manager_gpu_blocks_total",
                "Total blocks in the GPU KV pool.",
            ),
            cpu_blocks_free: r.gauge(
                "vllm_block_manager_cpu_blocks_free",
                "Free blocks in the CPU swap pool.",
            ),
            logical_blocks: r.gauge(
                "vllm_block_manager_logical_blocks",
                "Sum over sequences of logical GPU blocks (sharing denominator).",
            ),
            fragmentation_ratio: r.gauge(
                "vllm_block_manager_fragmentation_ratio",
                "Fraction of allocated KV slots not holding token state.",
            ),
            sharing_savings: r.gauge(
                "vllm_block_manager_sharing_savings",
                "Fraction of logical blocks saved by copy-on-write sharing.",
            ),
            cow_copies_total: r.counter(
                "vllm_block_manager_cow_copies_total",
                "Copy-on-write block copies performed.",
            ),
            swapped_out_blocks_total: r.counter(
                "vllm_block_manager_swapped_out_blocks_total",
                "Blocks swapped GPU to CPU.",
            ),
            swapped_in_blocks_total: r.counter(
                "vllm_block_manager_swapped_in_blocks_total",
                "Blocks swapped CPU to GPU.",
            ),
            pool_gpu_blocks: r.gauge(
                "vllm_block_pool_gpu_blocks",
                "Current size of the (elastic) GPU KV block pool.",
            ),
            pool_cpu_blocks: r.gauge(
                "vllm_block_pool_cpu_blocks",
                "Current size of the (elastic) CPU KV block pool.",
            ),
            pool_fragmentation_ratio: r.gauge(
                "vllm_block_pool_fragmentation_ratio",
                "Fraction of the live GPU-pool span that is free holes.",
            ),
            block_migrations_total: r.counter(
                "vllm_block_migrations_total",
                "Live KV blocks migrated by pool compaction.",
            ),
            gpu_blocks_cached_free: r.gauge(
                "vllm_block_manager_gpu_blocks_cached_free",
                "Free GPU blocks still holding indexed content (cached, evictable).",
            ),
            prefix_lookup_tokens_total: r.counter(
                "vllm_cache_prefix_lookup_tokens_total",
                "Prompt tokens of admissions that looked the block index up.",
            ),
            prefix_hit_tokens_total: r.counter(
                "vllm_cache_prefix_hit_tokens_total",
                "Prompt tokens found in the block index at admission.",
            ),
        }
    }
}

/// One indexed block: where the content lives and what it is.
#[derive(Debug)]
struct IndexedBlock {
    block: PhysicalBlockId,
    /// Hash of the prefix before this block ([`ROOT_HASH`] for a first one).
    parent: u64,
    /// The block's own `block_size` tokens.
    tokens: Vec<TokenId>,
}

/// The content index: hash of a block-aligned token prefix → the GPU block
/// holding the KV of that prefix's last block.
#[derive(Debug, Default)]
struct BlockIndex {
    blocks: HashMap<u64, IndexedBlock>,
    /// Bumped whenever the key set changes (coverage publishers poll it).
    version: u64,
}

impl BlockIndex {
    /// The block indexed under `hash`, if it really holds `tokens` after
    /// the prefix hashing to `parent`. Hashes come from untrusted prompts,
    /// so a 64-bit collision must read as a miss, never as someone else's
    /// KV.
    fn lookup(&self, hash: u64, parent: u64, tokens: &[TokenId]) -> Option<PhysicalBlockId> {
        self.blocks
            .get(&hash)
            .filter(|b| b.parent == parent && b.tokens == tokens)
            .map(|b| b.block)
    }

    /// Indexes `block` under `hash` unless the key is taken (the first
    /// block to hold a content keeps it). Returns whether it was inserted.
    fn insert(
        &mut self,
        hash: u64,
        parent: u64,
        tokens: &[TokenId],
        block: PhysicalBlockId,
    ) -> bool {
        if self.blocks.contains_key(&hash) {
            return false;
        }
        let tokens = tokens.to_vec();
        self.blocks.insert(
            hash,
            IndexedBlock {
                block,
                parent,
                tokens,
            },
        );
        self.version += 1;
        true
    }

    fn remove(&mut self, hash: u64) {
        if self.blocks.remove(&hash).is_some() {
            self.version += 1;
        }
    }
}

/// Manages block tables for all sequences plus the GPU and CPU block pools.
#[derive(Debug)]
pub struct BlockSpaceManager {
    block_size: usize,
    /// Watermark as a fraction of the pool, kept so the block headroom can
    /// be recomputed when the pool is resized.
    watermark: f64,
    watermark_blocks: usize,
    gpu: BlockAllocator,
    cpu: BlockAllocator,
    block_tables: HashMap<SeqId, Vec<PhysicalBlock>>,
    index: BlockIndex,
    /// Whether blocks are indexed and admissions look the index up.
    prefix_caching: bool,
    /// Cumulative prompt tokens looked up / found at admission (metrics).
    num_lookup_tokens: u64,
    num_hit_tokens: u64,
    /// Cumulative count of copy-on-write events (metrics).
    num_cow_copies: u64,
    /// Cumulative count of blocks swapped out / in (metrics).
    num_swapped_out_blocks: u64,
    num_swapped_in_blocks: u64,
    /// Cumulative count of blocks migrated by compaction (metrics).
    num_block_migrations: u64,
    /// Cache operations produced since the last [`Self::take_pending`]:
    /// every mutation that requires data movement (CoW splits, eager-copy
    /// forks, swaps) records its ops here, so the scheduler can batch them
    /// into the next [`crate::plan::StepPlan`] as data instead of callers
    /// threading side-channel copy lists around.
    pending: CacheOps,
    /// When block sharing is disabled (eager-copy ablation), admission must
    /// account for the full sequence fan-out of a request up front.
    pub fanout_admission: bool,
    /// When set, [`Self::can_swap_out`] reports no space regardless of the
    /// CPU pool, forcing the §4.5 recomputation fallback. Fault injection
    /// uses this to model an exhausted (or failed) swap device.
    swap_disabled: bool,
}

impl BlockSpaceManager {
    /// Creates a manager for the given cache configuration.
    #[must_use]
    pub fn new(config: &CacheConfig) -> Self {
        Self {
            block_size: config.block_size,
            watermark: config.watermark,
            watermark_blocks: config.watermark_blocks(),
            gpu: BlockAllocator::new(Device::Gpu, config.num_gpu_blocks),
            cpu: BlockAllocator::new(Device::Cpu, config.num_cpu_blocks),
            block_tables: HashMap::new(),
            index: BlockIndex::default(),
            prefix_caching: true,
            num_lookup_tokens: 0,
            num_hit_tokens: 0,
            num_cow_copies: 0,
            num_swapped_out_blocks: 0,
            num_swapped_in_blocks: 0,
            num_block_migrations: 0,
            pending: CacheOps::default(),
            fanout_admission: false,
            swap_disabled: false,
        }
    }

    /// Enables or disables the CPU swap pool. While disabled,
    /// [`Self::can_swap_out`] returns `false`, so preemption falls back to
    /// recomputation (§4.5); already-swapped blocks remain valid and can
    /// still swap back in.
    pub fn set_swap_disabled(&mut self, disabled: bool) {
        self.swap_disabled = disabled;
    }

    /// Whether the CPU swap pool is currently disabled.
    #[must_use]
    pub fn swap_disabled(&self) -> bool {
        self.swap_disabled
    }

    /// Turns the content index on or off (on by default). Off is the
    /// reference the parity tests and Fig. 16's "no prefix cache" rows
    /// compare against: nothing is indexed, nothing is looked up, and the
    /// allocator hands blocks out exactly as it did before hashes existed.
    pub fn set_prefix_caching(&mut self, enabled: bool) {
        self.prefix_caching = enabled;
        if !enabled {
            self.clear_cache();
        }
    }

    /// Forgets every indexed block. Recovery after an executor failure uses
    /// this: the failed step's cache operations may not have been applied,
    /// so what the index says a block holds can no longer be trusted.
    pub fn clear_cache(&mut self) {
        for id in 0..self.gpu.num_blocks() {
            self.gpu.clear_hash(id);
        }
        self.index = BlockIndex {
            blocks: HashMap::new(),
            version: self.index.version + 1,
        };
    }

    /// Counter that moves whenever the set of indexed hashes does.
    #[must_use]
    pub fn cache_version(&self) -> u64 {
        self.index.version
    }

    /// The sorted hashes of every indexed block: a prompt whose `k`-th
    /// [`chunk_hash`](crate::prefix::chunk_hashes) appears here has the KV
    /// of its first `k + 1` blocks resident (a replica's routing coverage).
    #[must_use]
    pub fn cached_hashes(&self) -> Vec<u64> {
        let mut hashes: Vec<u64> = self.index.blocks.keys().copied().collect();
        hashes.sort_unstable();
        hashes
    }

    /// Free GPU blocks that still hold indexed content.
    #[must_use]
    pub fn num_cached_free_gpu_blocks(&self) -> usize {
        self.gpu.num_cached_free()
    }

    /// Cumulative `(looked up, found)` prompt tokens over admissions.
    #[must_use]
    pub fn prefix_lookup_stats(&self) -> (u64, u64) {
        (self.num_lookup_tokens, self.num_hit_tokens)
    }

    /// KV block size in tokens.
    #[must_use]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of free GPU blocks.
    #[must_use]
    pub fn num_free_gpu_blocks(&self) -> usize {
        self.gpu.num_free()
    }

    /// Number of free CPU (swap) blocks.
    #[must_use]
    pub fn num_free_cpu_blocks(&self) -> usize {
        self.cpu.num_free()
    }

    /// Number of allocated GPU blocks.
    #[must_use]
    pub fn num_allocated_gpu_blocks(&self) -> usize {
        self.gpu.num_allocated()
    }

    /// Total GPU blocks in the pool.
    #[must_use]
    pub fn num_total_gpu_blocks(&self) -> usize {
        self.gpu.num_blocks()
    }

    /// Cumulative number of copy-on-write copies performed.
    #[must_use]
    pub fn num_cow_copies(&self) -> u64 {
        self.num_cow_copies
    }

    /// Cumulative number of blocks swapped out to CPU.
    #[must_use]
    pub fn num_swapped_out_blocks(&self) -> u64 {
        self.num_swapped_out_blocks
    }

    /// Cumulative number of blocks swapped back in.
    #[must_use]
    pub fn num_swapped_in_blocks(&self) -> u64 {
        self.num_swapped_in_blocks
    }

    /// Total CPU (swap) blocks in the pool.
    #[must_use]
    pub fn num_total_cpu_blocks(&self) -> usize {
        self.cpu.num_blocks()
    }

    /// Cumulative number of live blocks migrated by compaction.
    #[must_use]
    pub fn num_block_migrations(&self) -> u64 {
        self.num_block_migrations
    }

    /// External-hole fragmentation of the GPU pool: the fraction of the
    /// span `[0, highest_live]` that is free. This is the compaction debt an
    /// elastic shrink to `num_allocated` blocks would have to migrate away;
    /// 0 when the pool is empty or perfectly packed.
    #[must_use]
    pub fn pool_fragmentation_ratio(&self) -> f64 {
        match self.gpu.highest_live() {
            None => 0.0,
            Some(top) => {
                let span = top + 1;
                let holes = span - self.gpu.num_allocated().min(span);
                holes as f64 / span as f64
            }
        }
    }

    /// Resizes the GPU and CPU block pools at runtime (elastic memory).
    ///
    /// Growth mints fresh block ids above the old bound. Shrinkage first
    /// compacts: every live block above the new bound migrates to a free
    /// hole below it, the data moves are journaled into the pending
    /// [`CacheOps`] (`moves` lane), and every sequence block table and the
    /// content index follow. Free blocks above the new bound leave the pool
    /// with whatever they cached. The admission watermark is rescaled to the
    /// new pool size.
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::InvalidConfig`] if `gpu_blocks` is zero or
    /// smaller than the number of live GPU blocks (likewise for the CPU
    /// pool); the pool is left unchanged on error.
    pub fn resize(&mut self, gpu_blocks: usize, cpu_blocks: usize) -> Result<()> {
        if gpu_blocks == 0 {
            return Err(VllmError::InvalidConfig(
                "GPU pool must keep at least one block".into(),
            ));
        }
        if gpu_blocks < self.gpu.num_allocated() {
            return Err(VllmError::InvalidConfig(format!(
                "cannot shrink GPU pool to {gpu_blocks} blocks: {} are live",
                self.gpu.num_allocated()
            )));
        }
        if cpu_blocks < self.cpu.num_allocated() {
            return Err(VllmError::InvalidConfig(format!(
                "cannot shrink CPU pool to {cpu_blocks} blocks: {} are live",
                self.cpu.num_allocated()
            )));
        }
        if gpu_blocks > self.gpu.num_blocks() {
            self.gpu.grow(gpu_blocks)?;
            self.pending.gpu_capacity = Some(gpu_blocks);
        } else if gpu_blocks < self.gpu.num_blocks() {
            self.compact_device(Device::Gpu, gpu_blocks)?;
            for hash in self.gpu.shrink(gpu_blocks)? {
                self.index.remove(hash);
            }
            self.pending.gpu_capacity = Some(gpu_blocks);
        }
        if cpu_blocks > self.cpu.num_blocks() {
            self.cpu.grow(cpu_blocks)?;
            self.pending.cpu_capacity = Some(cpu_blocks);
        } else if cpu_blocks < self.cpu.num_blocks() {
            self.compact_device(Device::Cpu, cpu_blocks)?;
            self.cpu.shrink(cpu_blocks)?;
            self.pending.cpu_capacity = Some(cpu_blocks);
        }
        self.watermark_blocks = (self.watermark * gpu_blocks as f64) as usize;
        Ok(())
    }

    /// Fully defragments both pools without changing their size: every live
    /// block migrates to the lowest free hole, so live blocks end up packed
    /// at ids `[0, num_allocated)`. The data moves are journaled into the
    /// pending [`CacheOps`].
    ///
    /// # Errors
    ///
    /// Propagates allocator errors, which indicate corrupted accounting.
    pub fn compact(&mut self) -> Result<()> {
        self.compact_device(Device::Gpu, self.gpu.num_allocated())?;
        self.compact_device(Device::Cpu, self.cpu.num_allocated())
    }

    /// Migrates every live block of `device` with id at or above `bound`
    /// into a free hole below `bound`, journaling the moves and rewriting
    /// every block-table entry. A hole that still cached something loses
    /// it (the move overwrites its data); the moved block's own index entry
    /// follows it. The caller guarantees feasibility
    /// (`num_allocated <= bound`).
    fn compact_device(&mut self, device: Device, bound: usize) -> Result<()> {
        let pool = match device {
            Device::Gpu => &mut self.gpu,
            Device::Cpu => &mut self.cpu,
        };
        let mut mapping = HashMap::new();
        for src in pool.live_at_or_above(bound) {
            let dst = pool.lowest_free_below(bound).ok_or(match device {
                Device::Gpu => VllmError::OutOfGpuBlocks,
                Device::Cpu => VllmError::OutOfCpuBlocks,
            })?;
            if let Some(evicted) = pool.relocate(src, dst)? {
                self.index.remove(evicted);
            }
            if let Some(moved) = pool.hash(dst).and_then(|h| self.index.blocks.get_mut(&h)) {
                moved.block = dst;
            }
            mapping.insert(src, dst);
            self.pending.moves.push(BlockMove { device, src, dst });
            self.num_block_migrations += 1;
        }
        if !mapping.is_empty() {
            // A shared block moved once; rewrite every table that names it.
            for table in self.block_tables.values_mut() {
                for b in table.iter_mut() {
                    if b.device == device {
                        if let Some(&dst) = mapping.get(&b.id) {
                            b.id = dst;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Publishes the pool state to the cached telemetry handles.
    /// `used_slots` is the number of KV slots holding actual token state
    /// (the caller computes it from the live sequences, see
    /// [`Self::used_gpu_slots`]); the complement within allocated slots is
    /// internal fragmentation.
    pub fn publish_metrics(&self, m: &BlockManagerMetrics, used_slots: usize) {
        m.gpu_blocks_free.set(self.gpu.num_free() as f64);
        m.gpu_blocks_used.set(self.gpu.num_allocated() as f64);
        m.gpu_blocks_total.set(self.gpu.num_blocks() as f64);
        m.cpu_blocks_free.set(self.cpu.num_free() as f64);
        m.logical_blocks.set(self.num_logical_gpu_blocks() as f64);
        let allocated_slots = self.gpu.num_allocated() * self.block_size;
        let fragmentation = if allocated_slots == 0 {
            0.0
        } else {
            1.0 - (used_slots.min(allocated_slots) as f64 / allocated_slots as f64)
        };
        m.fragmentation_ratio.set(fragmentation);
        m.sharing_savings.set(self.sharing_savings());
        m.cow_copies_total.set_to_at_least(self.num_cow_copies);
        m.swapped_out_blocks_total
            .set_to_at_least(self.num_swapped_out_blocks);
        m.swapped_in_blocks_total
            .set_to_at_least(self.num_swapped_in_blocks);
        m.pool_gpu_blocks.set(self.gpu.num_blocks() as f64);
        m.pool_cpu_blocks.set(self.cpu.num_blocks() as f64);
        m.pool_fragmentation_ratio
            .set(self.pool_fragmentation_ratio());
        m.block_migrations_total
            .set_to_at_least(self.num_block_migrations);
        m.gpu_blocks_cached_free
            .set(self.gpu.num_cached_free() as f64);
        m.prefix_lookup_tokens_total
            .set_to_at_least(self.num_lookup_tokens);
        m.prefix_hit_tokens_total
            .set_to_at_least(self.num_hit_tokens);
    }

    /// Drains the cache operations accumulated since the last call. The
    /// scheduler calls this once per step to batch all pending data movement
    /// into the step's plan.
    pub fn take_pending(&mut self) -> CacheOps {
        std::mem::take(&mut self.pending)
    }

    /// Whether any cache operation is waiting to be drained.
    #[must_use]
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Checks whether the prompt blocks of a waiting group can be allocated.
    ///
    /// A watermark of free blocks is kept in reserve so that a freshly
    /// admitted request is not immediately preempted.
    #[must_use]
    pub fn can_allocate(&self, group: &SequenceGroup) -> AllocStatus {
        let mut required: usize = group
            .seqs_with_status(SequenceStatus::Waiting)
            .iter()
            .map(|s| s.num_logical_blocks())
            .sum();
        if self.fanout_admission {
            // Without sharing, the prompt blocks will be replicated into
            // every forked sequence.
            required *= group.max_num_seqs();
        }
        if required > self.gpu.num_blocks() {
            return AllocStatus::Never;
        }
        if self.gpu.num_free() >= required + self.watermark_blocks {
            AllocStatus::Ok
        } else {
            AllocStatus::Later
        }
    }

    /// Allocates block tables for every waiting sequence in the group and
    /// returns how many leading prompt tokens were found cached.
    ///
    /// A single waiting sequence looks its prompt up in the content index:
    /// the longest indexed run of its leading full blocks is mapped instead
    /// of allocated, capped at `(len - 1) / block_size` blocks so that at
    /// least one row still runs (the first sampled token needs logits) and
    /// every block the prefill writes is the sequence's own. A waiting
    /// fan-out (several sequences returned by recomputation) allocates
    /// plainly: its sequences carry cursors one cached count cannot
    /// describe.
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::OutOfGpuBlocks`] if the pool runs out; call
    /// [`Self::can_allocate`] first.
    pub fn allocate(&mut self, group: &SequenceGroup) -> Result<usize> {
        let waiting = group.seqs_with_status(SequenceStatus::Waiting);
        let lookup = self.prefix_caching && waiting.len() == 1;
        let mut cached_tokens = 0;
        for seq in waiting {
            let max_hits = if lookup {
                seq.len().saturating_sub(1) / self.block_size
            } else {
                0
            };
            let hits = self.cached_blocks(seq.data.tokens(), max_hits);
            let (blocks, hits) = self.map_blocks(hits, seq.num_logical_blocks())?;
            if lookup {
                cached_tokens = hits * self.block_size;
                self.num_lookup_tokens += seq.len() as u64;
                self.num_hit_tokens += cached_tokens as u64;
            }
            let table = blocks.into_iter().map(PhysicalBlock::gpu).collect();
            self.block_tables.insert(seq.seq_id, table);
        }
        Ok(cached_tokens)
    }

    /// The GPU blocks holding the longest indexed run of `tokens`' leading
    /// full blocks, at most `max_blocks` of them: the one place a hit is
    /// decided. Nothing is referenced — for reading (a KV export) the ids
    /// are good until the next allocation.
    #[must_use]
    pub fn cached_blocks(&self, tokens: &[TokenId], max_blocks: usize) -> Vec<PhysicalBlockId> {
        let mut run = Vec::new();
        let mut parent = ROOT_HASH;
        for chunk in tokens.chunks_exact(self.block_size).take(max_blocks) {
            let hash = extend_hash(parent, chunk);
            let Some(block) = self.index.lookup(hash, parent, chunk) else {
                break;
            };
            run.push(block);
            parent = hash;
        }
        run
    }

    /// Completes `blocks` — cached blocks found by [`Self::cached_blocks`]
    /// — to a run of `n_blocks` GPU blocks: those hits are shared (a live
    /// one gains a reference, a free one is revived), then fresh blocks are
    /// allocated. Hits are taken first, so the allocator cannot evict a
    /// block this run is about to map. Returns the run and how many of its
    /// leading blocks were hits.
    fn map_blocks(
        &mut self,
        mut blocks: Vec<PhysicalBlockId>,
        n_blocks: usize,
    ) -> Result<(Vec<PhysicalBlockId>, usize)> {
        let hits = blocks.len();
        for &block in &blocks {
            self.gpu.acquire(block)?;
        }
        while blocks.len() < n_blocks {
            blocks.push(self.allocate_gpu()?);
        }
        Ok((blocks, hits))
    }

    /// Takes a GPU block off the free blocks; if it still cached something,
    /// that entry is evicted here.
    fn allocate_gpu(&mut self) -> Result<PhysicalBlockId> {
        let (block, evicted) = self.gpu.allocate()?;
        if let Some(hash) = evicted {
            self.index.remove(hash);
        }
        Ok(block)
    }

    /// Indexes `blocks`, the blocks of `tokens` from block `first` on, each
    /// under the hash of the token prefix it completes. The hash of the
    /// prefix before them is the preceding block's own when that block is
    /// indexed (`before`), and is recomputed from the tokens otherwise.
    fn index_blocks(
        &mut self,
        tokens: &[TokenId],
        first: usize,
        before: Option<PhysicalBlockId>,
        blocks: &[PhysicalBlockId],
    ) {
        let bs = self.block_size;
        let mut parent = match before.and_then(|b| self.gpu.hash(b)) {
            Some(hash) => hash,
            None => extend_hash(ROOT_HASH, &tokens[..first * bs]),
        };
        for (chunk, &block) in tokens[first * bs..].chunks_exact(bs).zip(blocks) {
            let hash = extend_hash(parent, chunk);
            // A block already holding a hash (mapped from the index, or
            // indexed by a forked sibling) and content some other block
            // already serves stay as they are.
            if self.gpu.hash(block).is_none() && self.index.insert(hash, parent, chunk, block) {
                self.gpu.set_hash(block, hash);
            }
            parent = hash;
        }
    }

    /// Records that the KV of `seq` (GPU-resident), which covered its first
    /// `was_computed` tokens, now covers `num_computed_tokens()`: every
    /// block this completes enters the index. Prefill chunks and decode
    /// appends alike come through here, which is why a finished request's
    /// blocks are simply still there for the conversation's next turn.
    pub fn mark_computed(&mut self, seq: &Sequence, was_computed: usize) {
        let first = was_computed / self.block_size;
        let end = seq.data.num_computed_tokens() / self.block_size;
        let Some(table) = self.block_tables.get(&seq.seq_id) else {
            return;
        };
        if !self.prefix_caching || first >= end {
            return;
        }
        let before = first.checked_sub(1).map(|k| table[k].id);
        let blocks: Vec<PhysicalBlockId> = table[first..end].iter().map(|b| b.id).collect();
        self.index_blocks(seq.data.tokens(), first, before, &blocks);
    }

    /// Leaves the leading full blocks of `tokens` cached with no sequence
    /// owning them — as many as the free pool holds, so this never fails for
    /// want of space and takes nothing from a running sequence. Blocks the
    /// index already holds are kept, the rest are allocated, filled by
    /// `write(first_new_block, run, pending_ops)` — the caller's executor
    /// call, a KV-only forward or a journaled install, which must carry the
    /// manager's pending cache operations like any step's plan — then
    /// indexed and freed, tail first. If the write fails the run is freed
    /// unindexed.
    ///
    /// # Errors
    ///
    /// Returns the write's own error.
    pub fn cache_blocks(
        &mut self,
        tokens: &[TokenId],
        write: impl FnOnce(usize, &[PhysicalBlockId], CacheOps) -> Result<()>,
    ) -> Result<()> {
        let n_blocks = tokens.len() / self.block_size;
        if !self.prefix_caching {
            return Ok(());
        }
        // A live hit costs no free block; every other block of the run does.
        let mut cached = self.cached_blocks(tokens, n_blocks);
        let live = |b: &&PhysicalBlockId| self.gpu.ref_count(**b).is_ok_and(|refs| refs > 0);
        let n_blocks = n_blocks.min(self.gpu.num_free() + cached.iter().filter(live).count());
        cached.truncate(n_blocks);
        let (run, hits) = self.map_blocks(cached, n_blocks)?;
        let written = if hits == n_blocks {
            Ok(())
        } else {
            write(hits, &run, self.take_pending())
        };
        if written.is_ok() {
            let before = hits.checked_sub(1).map(|k| run[k]);
            self.index_blocks(tokens, hits, before, &run[hits..]);
        }
        for &block in run.iter().rev() {
            self.gpu.free(block)?;
        }
        written
    }

    /// Whether every running sequence in the group could receive one more
    /// block (worst case for the next decode step).
    #[must_use]
    pub fn can_append_slot(&self, group: &SequenceGroup) -> bool {
        let running = group.seqs_with_status(SequenceStatus::Running).len();
        self.gpu.num_free() >= running
    }

    /// Ensures the slot for the sequence's newest token exists, returning a
    /// copy-on-write operation if the last block had to be split (Fig. 8).
    ///
    /// Called once per running sequence per decode iteration, before the
    /// model step, so the step can write the new KV entry.
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::UnknownSequence`] if the sequence has no block
    /// table and [`VllmError::OutOfGpuBlocks`] if the pool is exhausted
    /// (the scheduler must preempt in that case).
    pub fn append_slot(&mut self, seq: &Sequence) -> Result<Option<BlockCopy>> {
        let required = seq.num_logical_blocks();
        let table = self
            .block_tables
            .get_mut(&seq.seq_id)
            .ok_or(VllmError::UnknownSequence(seq.seq_id))?;
        debug_assert!(
            table.len() + 1 >= required,
            "sequence grew by more than one block between steps"
        );
        if table.len() < required {
            // The new token starts a fresh logical block.
            let id = self.allocate_gpu()?;
            self.block_tables
                .get_mut(&seq.seq_id)
                .ok_or(VllmError::UnknownSequence(seq.seq_id))?
                .push(PhysicalBlock::gpu(id));
            return Ok(None);
        }
        // The new token lands in the last existing block; if that block is
        // shared, split it with copy-on-write.
        let last = *table.last().ok_or(VllmError::UnknownSequence(seq.seq_id))?;
        debug_assert_eq!(last.device, Device::Gpu);
        if self.gpu.ref_count(last.id)? > 1 {
            let fresh = self.allocate_gpu()?;
            self.gpu.free(last.id)?;
            let table = self
                .block_tables
                .get_mut(&seq.seq_id)
                .ok_or(VllmError::UnknownSequence(seq.seq_id))?;
            *table.last_mut().expect("table nonempty") = PhysicalBlock::gpu(fresh);
            self.num_cow_copies += 1;
            let copy = BlockCopy {
                src: last.id,
                dst: fresh,
            };
            self.pending.copies.push(copy);
            return Ok(Some(copy));
        }
        Ok(None)
    }

    /// Shares the parent's blocks with a forked child (the `fork` primitive
    /// of §5.2): the child's block table is a copy and every block's
    /// reference count is incremented.
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::UnknownSequence`] if the parent has no table.
    pub fn fork(&mut self, parent_id: SeqId, child_id: SeqId) -> Result<()> {
        let table = self
            .block_tables
            .get(&parent_id)
            .ok_or(VllmError::UnknownSequence(parent_id))?
            .clone();
        for block in &table {
            match block.device {
                Device::Gpu => self.gpu.incr_ref(block.id)?,
                Device::Cpu => self.cpu.incr_ref(block.id)?,
            }
        }
        self.block_tables.insert(child_id, table);
        Ok(())
    }

    /// Eager-copy fork (ablation): instead of sharing the parent's blocks,
    /// the child gets fresh blocks and the parent's contents are copied —
    /// what a contiguous-KV system must do. Returns the copies to perform.
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::UnknownSequence`] if the parent has no table and
    /// [`VllmError::OutOfGpuBlocks`] if the pool is exhausted.
    pub fn fork_eager(&mut self, parent_id: SeqId, child_id: SeqId) -> Result<Vec<BlockCopy>> {
        let table = self
            .block_tables
            .get(&parent_id)
            .ok_or(VllmError::UnknownSequence(parent_id))?
            .clone();
        let mut new_table = Vec::with_capacity(table.len());
        let mut copies = Vec::with_capacity(table.len());
        for block in &table {
            debug_assert_eq!(block.device, Device::Gpu, "eager fork of resident seq");
            let fresh = self.allocate_gpu()?;
            copies.push(BlockCopy {
                src: block.id,
                dst: fresh,
            });
            new_table.push(PhysicalBlock::gpu(fresh));
        }
        self.block_tables.insert(child_id, new_table);
        self.pending.copies.extend_from_slice(&copies);
        Ok(copies)
    }

    /// Frees all blocks of a sequence (the `free` primitive of §5.2). What
    /// they cached stays cached for as long as the blocks stay free.
    ///
    /// Freeing a sequence without a block table is a no-op so that waiting
    /// sequences can be aborted uniformly.
    ///
    /// # Errors
    ///
    /// Propagates double-free errors, which indicate corrupted accounting.
    pub fn free(&mut self, seq_id: SeqId) -> Result<()> {
        self.release(seq_id, true)
    }

    /// Frees all blocks of a sequence preempted by recomputation: those no
    /// other table shares leave the index too, so the sequence pays for its
    /// recompute when it is admitted again (§4.5) instead of reviving its
    /// own blocks.
    ///
    /// # Errors
    ///
    /// Propagates double-free errors, which indicate corrupted accounting.
    pub fn free_for_recompute(&mut self, seq_id: SeqId) -> Result<()> {
        self.release(seq_id, false)
    }

    fn release(&mut self, seq_id: SeqId, keep_cached: bool) -> Result<()> {
        let Some(table) = self.block_tables.remove(&seq_id) else {
            return Ok(());
        };
        // Tail first: a prefix's blocks are freed after — and so evicted
        // after — the blocks that extend it.
        for block in table.into_iter().rev() {
            match block.device {
                Device::Gpu => {
                    if !keep_cached && self.gpu.ref_count(block.id)? == 1 {
                        if let Some(hash) = self.gpu.clear_hash(block.id) {
                            self.index.remove(hash);
                        }
                    }
                    self.gpu.free(block.id)?
                }
                Device::Cpu => self.cpu.free(block.id)?,
            };
        }
        Ok(())
    }

    /// The physical blocks of a sequence, in logical order.
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::UnknownSequence`] if the sequence has no table.
    pub fn block_table(&self, seq_id: SeqId) -> Result<&[PhysicalBlock]> {
        self.block_tables
            .get(&seq_id)
            .map(Vec::as_slice)
            .ok_or(VllmError::UnknownSequence(seq_id))
    }

    /// Whether a sequence currently has a block table.
    #[must_use]
    pub fn has_table(&self, seq_id: SeqId) -> bool {
        self.block_tables.contains_key(&seq_id)
    }

    /// GPU block ids of a sequence (convenience for executors).
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::UnknownSequence`] if the sequence has no table,
    /// or [`VllmError::InvalidBlock`] if any block is not GPU-resident.
    pub fn gpu_block_ids(&self, seq_id: SeqId) -> Result<Vec<PhysicalBlockId>> {
        let table = self.block_table(seq_id)?;
        table
            .iter()
            .map(|b| {
                if b.device == Device::Gpu {
                    Ok(b.id)
                } else {
                    Err(VllmError::InvalidBlock(b.id))
                }
            })
            .collect()
    }

    /// Whether the group's swapped-out blocks fit back into the GPU pool,
    /// keeping one extra block of headroom per sequence for the next token.
    #[must_use]
    pub fn can_swap_in(&self, group: &SequenceGroup) -> bool {
        let mut unique: Vec<PhysicalBlockId> = Vec::new();
        let mut num_seqs = 0;
        for seq in group.seqs_with_status(SequenceStatus::Swapped) {
            num_seqs += 1;
            if let Some(table) = self.block_tables.get(&seq.seq_id) {
                for b in table {
                    if b.device == Device::Cpu && !unique.contains(&b.id) {
                        unique.push(b.id);
                    }
                }
            }
        }
        self.gpu.num_free() >= unique.len() + num_seqs + self.watermark_blocks
    }

    /// Whether the group's GPU blocks fit into the CPU swap pool.
    #[must_use]
    pub fn can_swap_out(&self, group: &SequenceGroup) -> bool {
        if self.swap_disabled {
            return false;
        }
        let mut unique: Vec<PhysicalBlockId> = Vec::new();
        for seq in group.seqs() {
            if seq.is_finished() {
                continue;
            }
            if let Some(table) = self.block_tables.get(&seq.seq_id) {
                for b in table {
                    if b.device == Device::Gpu && !unique.contains(&b.id) {
                        unique.push(b.id);
                    }
                }
            }
        }
        self.cpu.num_free() >= unique.len()
    }

    /// Moves every running sequence's blocks to the CPU pool, preserving
    /// intra-group sharing (§4.5 swapping). Returns the (gpu → cpu) copies
    /// the executor must perform.
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::OutOfCpuBlocks`] if the swap space is full; call
    /// [`Self::can_swap_out`] first.
    pub fn swap_out(&mut self, group: &SequenceGroup) -> Result<Vec<BlockCopy>> {
        // A GPU block shared by several sequences in the group maps to one
        // CPU block, keeping reference counts consistent.
        let mut mapping: HashMap<PhysicalBlockId, PhysicalBlockId> = HashMap::new();
        let mut copies = Vec::new();
        for seq in group.seqs() {
            if seq.is_finished() {
                continue;
            }
            let Some(table) = self.block_tables.get(&seq.seq_id).cloned() else {
                continue;
            };
            let mut new_table = Vec::with_capacity(table.len());
            for block in table {
                match block.device {
                    Device::Gpu => {
                        let cpu_id = match mapping.get(&block.id) {
                            Some(&cpu_id) => {
                                self.cpu.incr_ref(cpu_id)?;
                                cpu_id
                            }
                            None => {
                                let (cpu_id, _) = self.cpu.allocate()?;
                                mapping.insert(block.id, cpu_id);
                                copies.push(BlockCopy {
                                    src: block.id,
                                    dst: cpu_id,
                                });
                                cpu_id
                            }
                        };
                        self.gpu.free(block.id)?;
                        new_table.push(PhysicalBlock::cpu(cpu_id));
                    }
                    Device::Cpu => new_table.push(block),
                }
            }
            self.block_tables.insert(seq.seq_id, new_table);
        }
        self.num_swapped_out_blocks += copies.len() as u64;
        self.pending.swap_out.extend_from_slice(&copies);
        Ok(copies)
    }

    /// Brings a swapped group's blocks back into the GPU pool (§4.5).
    /// Returns the (cpu → gpu) copies the executor must perform.
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::OutOfGpuBlocks`] if the pool is full; call
    /// [`Self::can_swap_in`] first.
    pub fn swap_in(&mut self, group: &SequenceGroup) -> Result<Vec<BlockCopy>> {
        let mut mapping: HashMap<PhysicalBlockId, PhysicalBlockId> = HashMap::new();
        let mut copies = Vec::new();
        for seq in group.seqs_with_status(SequenceStatus::Swapped) {
            let Some(table) = self.block_tables.get(&seq.seq_id).cloned() else {
                continue;
            };
            let mut new_table = Vec::with_capacity(table.len());
            for block in table {
                match block.device {
                    Device::Cpu => {
                        let gpu_id = match mapping.get(&block.id) {
                            Some(&gpu_id) => {
                                self.gpu.incr_ref(gpu_id)?;
                                gpu_id
                            }
                            None => {
                                let gpu_id = self.allocate_gpu()?;
                                mapping.insert(block.id, gpu_id);
                                copies.push(BlockCopy {
                                    src: block.id,
                                    dst: gpu_id,
                                });
                                gpu_id
                            }
                        };
                        self.cpu.free(block.id)?;
                        new_table.push(PhysicalBlock::gpu(gpu_id));
                    }
                    Device::Gpu => new_table.push(block),
                }
            }
            self.block_tables.insert(seq.seq_id, new_table);
        }
        self.num_swapped_in_blocks += copies.len() as u64;
        self.pending.swap_in.extend_from_slice(&copies);
        Ok(copies)
    }

    /// Sum over sequences of their logical block counts, for GPU-resident
    /// sequences. The difference to [`Self::num_allocated_gpu_blocks`] is the
    /// number of blocks saved by sharing (Fig. 15).
    #[must_use]
    pub fn num_logical_gpu_blocks(&self) -> usize {
        self.block_tables
            .values()
            .map(|t| t.iter().filter(|b| b.device == Device::Gpu).count())
            .sum()
    }

    /// Fraction of blocks saved by sharing: `(logical - physical) / logical`
    /// (Fig. 15). Returns 0 when nothing is allocated.
    #[must_use]
    pub fn sharing_savings(&self) -> f64 {
        let logical = self.num_logical_gpu_blocks();
        if logical == 0 {
            return 0.0;
        }
        (logical - self.gpu.num_allocated()) as f64 / logical as f64
    }

    /// Number of KV token slots actually holding token state in the GPU pool,
    /// given the sequences' current lengths (Fig. 2 "token states" metric).
    ///
    /// A shared physical block stores one copy of its token states, so fill
    /// counts are aggregated per physical block with `max`.
    #[must_use]
    pub fn used_gpu_slots<'a, I>(&self, seqs: I) -> usize
    where
        I: IntoIterator<Item = &'a Sequence>,
    {
        let mut fill: HashMap<PhysicalBlockId, usize> = HashMap::new();
        for seq in seqs {
            let Some(table) = self.block_tables.get(&seq.seq_id) else {
                continue;
            };
            let len = seq.len();
            for (j, block) in table.iter().enumerate() {
                if block.device != Device::Gpu {
                    continue;
                }
                let filled = len.saturating_sub(j * self.block_size).min(self.block_size);
                let e = fill.entry(block.id).or_insert(0);
                *e = (*e).max(filled);
            }
        }
        fill.values().sum()
    }

    /// Verifies internal consistency, exactly: every block's reference
    /// count equals the number of sequence-table entries naming it (so a
    /// single leaked or lost reference on any block is caught); the blocks
    /// holding a hash and the index entries are one-to-one; every free
    /// block sits on the free list its hash puts it on; and nothing in the
    /// CPU pool is hashed. Intended for tests and debug assertions.
    ///
    /// # Panics
    ///
    /// Panics if the accounting is inconsistent.
    pub fn assert_consistent(&self) {
        let mut gpu_refs: HashMap<PhysicalBlockId, u32> = HashMap::new();
        let mut cpu_refs: HashMap<PhysicalBlockId, u32> = HashMap::new();
        for table in self.block_tables.values() {
            for b in table {
                match b.device {
                    Device::Gpu => *gpu_refs.entry(b.id).or_insert(0) += 1,
                    Device::Cpu => *cpu_refs.entry(b.id).or_insert(0) += 1,
                }
            }
        }
        for (pool, refs, name) in [(&self.gpu, &gpu_refs, "gpu"), (&self.cpu, &cpu_refs, "cpu")] {
            for id in 0..pool.num_blocks() {
                let tables = refs.get(&id).copied().unwrap_or(0);
                let actual = pool.ref_count(id).expect("in range");
                assert_eq!(
                    actual, tables,
                    "{name} block {id}: ref count {actual} != {tables} table references"
                );
            }
            pool.assert_consistent();
        }
        for (hash, entry) in &self.index.blocks {
            assert_eq!(
                self.gpu.hash(entry.block),
                Some(*hash),
                "index entry {hash:#x} names block {} which does not hold it",
                entry.block
            );
            assert_eq!(entry.tokens.len(), self.block_size);
        }
        let hashed = |pool: &BlockAllocator| {
            (0..pool.num_blocks())
                .filter(|&id| pool.hash(id).is_some())
                .count()
        };
        assert_eq!(
            hashed(&self.gpu),
            self.index.blocks.len(),
            "a GPU block holds a hash the index does not map to it"
        );
        assert_eq!(hashed(&self.cpu), 0, "a CPU block is hashed");
        assert!(self.prefix_caching || self.index.blocks.is_empty());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::SamplingParams;
    use crate::sequence::Sequence;

    const BS: usize = 4;

    fn manager(gpu_blocks: usize, cpu_blocks: usize) -> BlockSpaceManager {
        let cfg = CacheConfig::new(BS, gpu_blocks, cpu_blocks)
            .unwrap()
            .with_watermark(0.0)
            .unwrap();
        BlockSpaceManager::new(&cfg)
    }

    fn group_with_prompt(id: u64, prompt_len: usize) -> SequenceGroup {
        let seq = Sequence::new(id, (0..prompt_len as u32).collect(), BS);
        SequenceGroup::new(format!("r{id}"), seq, SamplingParams::greedy(64), 0.0)
    }

    #[test]
    fn allocate_prompt_blocks() {
        let mut m = manager(10, 0);
        let g = group_with_prompt(0, 7);
        assert_eq!(m.can_allocate(&g), AllocStatus::Ok);
        m.allocate(&g).unwrap();
        assert_eq!(m.block_table(0).unwrap().len(), 2);
        assert_eq!(m.num_free_gpu_blocks(), 8);
        m.assert_consistent();
    }

    #[test]
    fn can_allocate_never_for_oversized_prompt() {
        let m = manager(2, 0);
        let g = group_with_prompt(0, 100);
        assert_eq!(m.can_allocate(&g), AllocStatus::Never);
    }

    #[test]
    fn can_allocate_later_when_full() {
        let mut m = manager(2, 0);
        let g0 = group_with_prompt(0, 8);
        m.allocate(&g0).unwrap();
        let g1 = group_with_prompt(1, 4);
        assert_eq!(m.can_allocate(&g1), AllocStatus::Later);
    }

    #[test]
    fn append_slot_allocates_on_block_boundary() {
        let mut m = manager(10, 0);
        let mut g = group_with_prompt(0, 4);
        m.allocate(&g).unwrap();
        assert_eq!(m.block_table(0).unwrap().len(), 1);
        // Token 5 starts logical block 1.
        g.get_mut(0).unwrap().data.append_token(100);
        let cow = m.append_slot(g.get(0).unwrap()).unwrap();
        assert!(cow.is_none());
        assert_eq!(m.block_table(0).unwrap().len(), 2);
        // Tokens 6..8 stay in block 1.
        for t in 0..3 {
            g.get_mut(0).unwrap().data.append_token(101 + t);
            assert!(m.append_slot(g.get(0).unwrap()).unwrap().is_none());
        }
        assert_eq!(m.block_table(0).unwrap().len(), 2);
        m.assert_consistent();
    }

    #[test]
    fn fork_shares_blocks_and_cow_splits() {
        let mut m = manager(10, 0);
        let mut g = group_with_prompt(0, 6);
        m.allocate(&g).unwrap();
        let child = g.get(0).unwrap().fork(1);
        g.add(child);
        m.fork(0, 1).unwrap();
        // Both tables point at the same two blocks.
        assert_eq!(m.block_table(0).unwrap(), m.block_table(1).unwrap());
        assert_eq!(m.num_allocated_gpu_blocks(), 2);
        assert_eq!(m.num_logical_gpu_blocks(), 4);
        assert!(m.sharing_savings() > 0.49);

        // Child appends into the half-full last block: copy-on-write.
        g.get_mut(1).unwrap().data.append_token(7);
        let cow = m.append_slot(g.get(1).unwrap()).unwrap().unwrap();
        assert_eq!(m.num_allocated_gpu_blocks(), 3);
        let t0 = m.block_table(0).unwrap().to_vec();
        let t1 = m.block_table(1).unwrap().to_vec();
        assert_eq!(t0[0], t1[0]);
        assert_ne!(t0[1], t1[1]);
        assert_eq!(cow.src, t0[1].id);
        assert_eq!(cow.dst, t1[1].id);

        // Parent now appends into its (no longer shared) block: no copy.
        g.get_mut(0).unwrap().data.append_token(8);
        assert!(m.append_slot(g.get(0).unwrap()).unwrap().is_none());
        assert_eq!(m.num_cow_copies(), 1);
        m.assert_consistent();
    }

    #[test]
    fn free_releases_shared_blocks_gradually() {
        let mut m = manager(10, 0);
        let g = group_with_prompt(0, 8);
        m.allocate(&g).unwrap();
        m.fork(0, 1).unwrap();
        m.free(0).unwrap();
        assert_eq!(m.num_allocated_gpu_blocks(), 2);
        m.free(1).unwrap();
        assert_eq!(m.num_allocated_gpu_blocks(), 0);
        assert_eq!(m.num_free_gpu_blocks(), 10);
    }

    #[test]
    fn free_unknown_sequence_is_noop() {
        let mut m = manager(4, 0);
        assert!(m.free(42).is_ok());
    }

    #[test]
    fn swap_out_and_in_round_trip() {
        let mut m = manager(4, 4);
        let mut g = group_with_prompt(0, 8);
        m.allocate(&g).unwrap();
        g.set_status_all(SequenceStatus::Running);
        assert!(m.can_swap_out(&g));
        let out = m.swap_out(&g).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(m.num_free_gpu_blocks(), 4);
        assert_eq!(m.num_free_cpu_blocks(), 2);
        g.set_status_all(SequenceStatus::Swapped);

        assert!(m.can_swap_in(&g));
        let back = m.swap_in(&g).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(m.num_free_cpu_blocks(), 4);
        assert_eq!(m.num_free_gpu_blocks(), 2);
        assert_eq!(m.num_swapped_out_blocks(), 2);
        assert_eq!(m.num_swapped_in_blocks(), 2);
        m.assert_consistent();
    }

    #[test]
    fn swap_preserves_intra_group_sharing() {
        let mut m = manager(8, 8);
        let mut g = group_with_prompt(0, 8);
        m.allocate(&g).unwrap();
        let child = g.get(0).unwrap().fork(1);
        g.add(child);
        m.fork(0, 1).unwrap();
        g.set_status_all(SequenceStatus::Running);

        // 2 physical blocks shared by 2 sequences: swap copies only 2 blocks.
        let out = m.swap_out(&g).unwrap();
        assert_eq!(out.len(), 2);
        g.set_status_all(SequenceStatus::Swapped);
        assert_eq!(m.block_table(0).unwrap(), m.block_table(1).unwrap());

        let back = m.swap_in(&g).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(m.block_table(0).unwrap(), m.block_table(1).unwrap());
        assert_eq!(m.num_allocated_gpu_blocks(), 2);
        m.assert_consistent();
    }

    #[test]
    fn swap_out_fails_when_cpu_pool_too_small() {
        let mut m = manager(4, 1);
        let mut g = group_with_prompt(0, 8);
        m.allocate(&g).unwrap();
        g.set_status_all(SequenceStatus::Running);
        assert!(!m.can_swap_out(&g));
        assert!(m.swap_out(&g).is_err());
    }

    #[test]
    fn used_slots_counts_shared_blocks_once() {
        let mut m = manager(8, 0);
        let mut g = group_with_prompt(0, 6);
        m.allocate(&g).unwrap();
        let child = g.get(0).unwrap().fork(1);
        g.add(child);
        m.fork(0, 1).unwrap();
        let seqs: Vec<&Sequence> = g.seqs();
        // 6 tokens stored once despite two sharers.
        assert_eq!(m.used_gpu_slots(seqs.into_iter()), 6);
    }

    #[test]
    fn pending_ops_mirror_returned_copies() {
        let mut m = manager(8, 8);
        let mut g = group_with_prompt(0, 6);
        m.allocate(&g).unwrap();
        assert!(!m.has_pending(), "plain allocation moves no data");
        let child = g.get(0).unwrap().fork(1);
        g.add(child);
        m.fork(0, 1).unwrap();

        // CoW split lands in the pending copy lane.
        g.get_mut(1).unwrap().data.append_token(7);
        let cow = m.append_slot(g.get(1).unwrap()).unwrap().unwrap();
        assert!(m.has_pending());
        let ops = m.take_pending();
        assert_eq!(ops.copies, vec![cow]);
        assert!(ops.swap_in.is_empty() && ops.swap_out.is_empty());
        assert!(!m.has_pending(), "take_pending drains");

        // Swap out/in land in their own lanes.
        g.set_status_all(SequenceStatus::Running);
        let out = m.swap_out(&g).unwrap();
        g.set_status_all(SequenceStatus::Swapped);
        let back = m.swap_in(&g).unwrap();
        let ops = m.take_pending();
        assert_eq!(ops.swap_out, out);
        assert_eq!(ops.swap_in, back);
        assert!(ops.copies.is_empty());
    }

    #[test]
    fn resize_grow_then_shrink_compacts_and_journals_moves() {
        let mut m = manager(6, 4);
        let g0 = group_with_prompt(0, 8); // Blocks 0, 1.
        let g1 = group_with_prompt(1, 8); // Blocks 2, 3.
        m.allocate(&g0).unwrap();
        m.allocate(&g1).unwrap();
        m.take_pending();

        // Grow: fresh ids appear above the old bound.
        m.resize(10, 4).unwrap();
        assert_eq!(m.num_total_gpu_blocks(), 10);
        assert_eq!(m.num_free_gpu_blocks(), 6);
        let ops = m.take_pending();
        assert_eq!(ops.gpu_capacity, Some(10));
        assert!(ops.moves.is_empty());

        // Free the low group: holes at 0 and 1, live blocks at 2 and 3.
        m.free(0).unwrap();
        assert!(m.pool_fragmentation_ratio() > 0.0);

        // Shrink past the live blocks: they migrate into the holes and the
        // surviving table is remapped.
        m.resize(2, 4).unwrap();
        assert_eq!(m.num_total_gpu_blocks(), 2);
        assert_eq!(m.num_free_gpu_blocks(), 0);
        let ops = m.take_pending();
        assert_eq!(ops.moves.len(), 2);
        let moved_to = |src| ops.moves.iter().find(|mv| mv.src == src).unwrap().dst;
        assert_eq!(m.gpu_block_ids(1).unwrap(), vec![moved_to(2), moved_to(3)]);
        assert_eq!(ops.gpu_capacity, Some(2));
        for mv in &ops.moves {
            assert_eq!(mv.device, Device::Gpu);
            assert!(mv.src >= 2 && mv.dst < 2);
        }
        assert_eq!(m.num_block_migrations(), 2);
        assert_eq!(m.pool_fragmentation_ratio(), 0.0);
        m.assert_consistent();
    }

    #[test]
    fn resize_refuses_to_shrink_below_working_set() {
        let mut m = manager(4, 0);
        let g = group_with_prompt(0, 8);
        m.allocate(&g).unwrap();
        assert!(m.resize(1, 0).is_err());
        assert!(m.resize(0, 0).is_err());
        // Unchanged on error.
        assert_eq!(m.num_total_gpu_blocks(), 4);
        m.assert_consistent();
    }

    #[test]
    fn compact_moves_shared_blocks_once_and_keeps_sharing() {
        let mut m = manager(8, 0);
        let filler = group_with_prompt(9, 8); // Blocks 0, 1.
        m.allocate(&filler).unwrap();
        let g = group_with_prompt(0, 8); // Blocks 2, 3.
        m.allocate(&g).unwrap();
        m.fork(0, 1).unwrap(); // Shared by two sequences.
        m.free(9).unwrap(); // Holes at 0, 1.
        m.take_pending();

        m.compact().unwrap();
        assert_eq!(m.block_table(0).unwrap(), m.block_table(1).unwrap());
        assert_eq!(m.gpu_block_ids(0).unwrap(), vec![0, 1]);
        let ops = m.take_pending();
        assert_eq!(ops.moves.len(), 2, "each shared block moves exactly once");
        assert_eq!(ops.gpu_capacity, None, "compact alone never resizes");
        m.assert_consistent();
    }

    #[test]
    fn compact_remaps_swapped_out_cpu_blocks() {
        let mut m = manager(4, 6);
        let filler = group_with_prompt(9, 8);
        m.allocate(&filler).unwrap();
        let mut g = group_with_prompt(0, 8);
        m.swap_out(&filler).unwrap(); // CPU blocks 0, 1.
        m.allocate(&g).unwrap();
        g.set_status_all(SequenceStatus::Running);
        m.swap_out(&g).unwrap(); // CPU blocks 2, 3.
                                 // Free the first swapped group: CPU holes at 0, 1.
        m.free(9).unwrap();
        m.take_pending();

        m.resize(4, 2).unwrap();
        let table = m.block_table(0).unwrap();
        assert!(table.iter().all(|b| b.device == Device::Cpu && b.id < 2));
        let ops = m.take_pending();
        assert_eq!(ops.cpu_capacity, Some(2));
        assert_eq!(ops.moves.len(), 2);
        assert!(ops.moves.iter().all(|mv| mv.device == Device::Cpu));
        m.assert_consistent();
    }

    #[test]
    fn resize_rescales_watermark() {
        let cfg = CacheConfig::new(BS, 100, 0)
            .unwrap()
            .with_watermark(0.1)
            .unwrap();
        let mut m = BlockSpaceManager::new(&cfg);
        let g = group_with_prompt(0, 4);
        // 10-block watermark: a 1-block prompt needs 11 free.
        assert_eq!(m.can_allocate(&g), AllocStatus::Ok);
        m.resize(200, 0).unwrap();
        // Watermark rescaled to 20 blocks of 200.
        assert_eq!(m.num_total_gpu_blocks(), 200);
        assert_eq!(m.can_allocate(&g), AllocStatus::Ok);
        m.resize(1, 0).unwrap();
        assert_eq!(m.can_allocate(&g), AllocStatus::Ok, "watermark is 0 of 1");
    }

    #[test]
    #[should_panic(expected = "gpu block 0: ref count 2 != 1 table references")]
    fn assert_consistent_catches_one_leaked_reference_on_a_table_block() {
        let mut m = manager(4, 0);
        m.allocate(&group_with_prompt(0, 4)).unwrap(); // Block 0.
        m.assert_consistent();
        m.gpu.incr_ref(0).unwrap(); // A reference nobody owns.
        m.assert_consistent();
    }

    /// Allocates `g`'s prompt and marks all of it computed, as a finished
    /// prefill would.
    fn prefill(m: &mut BlockSpaceManager, g: &mut SequenceGroup) -> usize {
        let cached = m.allocate(g).unwrap();
        let id = g.seqs()[0].seq_id;
        let seq = g.get_mut(id).unwrap();
        seq.data.set_num_computed_tokens(seq.len());
        m.mark_computed(seq, 0);
        cached
    }

    #[test]
    fn freed_blocks_stay_cached_and_a_later_prompt_maps_them() {
        let mut m = manager(10, 0);
        let mut g0 = group_with_prompt(0, 10); // Two full blocks and a tail.
        assert_eq!(prefill(&mut m, &mut g0), 0);
        assert_eq!(m.cached_hashes().len(), 2, "only full blocks are indexed");
        let blocks0 = m.gpu_block_ids(0).unwrap();

        // A live hit: the second request shares the two full blocks.
        let mut g1 = group_with_prompt(1, 14);
        assert_eq!(prefill(&mut m, &mut g1), 8);
        assert_eq!(m.gpu_block_ids(1).unwrap()[..2], blocks0[..2]);
        assert_eq!(m.num_allocated_gpu_blocks(), 3 + 2);
        m.assert_consistent();

        // Freed, every block is free again and three of them still cached.
        m.free(0).unwrap();
        m.free(1).unwrap();
        assert_eq!(m.num_free_gpu_blocks(), 10);
        assert_eq!(m.num_cached_free_gpu_blocks(), 3);
        m.assert_consistent();

        // A free hit revives them: same blocks, and the strict-prefix rule
        // keeps the prompt's last block (cached though it is) its own.
        let mut g2 = group_with_prompt(2, 12);
        assert_eq!(prefill(&mut m, &mut g2), 8);
        assert_eq!(m.gpu_block_ids(2).unwrap()[..2], blocks0[..2]);
        assert_eq!(m.prefix_lookup_stats(), (10 + 14 + 12, 8 + 8));
        m.assert_consistent();
    }

    #[test]
    fn same_hash_different_tokens_is_a_miss() {
        let mut index = BlockIndex::default();
        assert!(index.insert(42, ROOT_HASH, &[1, 2, 3, 4], 7));
        assert_eq!(index.lookup(42, ROOT_HASH, &[1, 2, 3, 4]), Some(7));
        // A colliding hash from other content, or after another prefix.
        assert_eq!(index.lookup(42, ROOT_HASH, &[1, 2, 3, 5]), None);
        assert_eq!(index.lookup(42, 9, &[1, 2, 3, 4]), None);
        // The first block to hold a key keeps it.
        assert!(!index.insert(42, ROOT_HASH, &[9, 9, 9, 9], 8));
        assert_eq!(index.lookup(42, ROOT_HASH, &[1, 2, 3, 4]), Some(7));
    }

    #[test]
    fn eviction_takes_unhashed_blocks_first_then_extensions_before_prefixes() {
        let mut m = manager(4, 0);
        let mut g0 = group_with_prompt(0, 12); // Blocks 0, 1, 2, all indexed.
        prefill(&mut m, &mut g0);
        m.free(0).unwrap();
        assert_eq!(m.num_cached_free_gpu_blocks(), 3);
        // Two blocks for unrelated content: the never-used block 3, then the
        // tail of the cached run. The first two blocks of it survive.
        let g1 = Sequence::new(1, (100..108).collect(), BS);
        let g1 = SequenceGroup::new("r1", g1, SamplingParams::greedy(4), 0.0);
        m.allocate(&g1).unwrap();
        assert_eq!(m.gpu_block_ids(1).unwrap(), vec![3, 2]);
        assert_eq!(m.cached_blocks(&(0..12).collect::<Vec<_>>(), 9), vec![0, 1]);
        m.assert_consistent();
    }

    #[test]
    fn recompute_free_drops_what_only_that_sequence_cached() {
        let mut m = manager(10, 0);
        let mut g0 = group_with_prompt(0, 12);
        prefill(&mut m, &mut g0);
        let mut g1 = group_with_prompt(1, 9); // Shares blocks 0 and 1.
        assert_eq!(prefill(&mut m, &mut g1), 8);
        m.free_for_recompute(0).unwrap();
        // Block 2 was only sequence 0's: unindexed. The shared two stay.
        assert_eq!(m.cached_hashes().len(), 2);
        assert_eq!(m.num_cached_free_gpu_blocks(), 0);
        m.free_for_recompute(1).unwrap();
        assert!(m.cached_hashes().is_empty());
        assert_eq!(m.num_free_gpu_blocks(), 10);
        m.assert_consistent();
    }

    #[test]
    fn compaction_and_shrink_keep_the_index_on_the_moved_blocks() {
        let mut m = manager(8, 0);
        let mut filler = group_with_prompt(9, 8); // Blocks 0, 1.
        prefill(&mut m, &mut filler);
        let mut g = group_with_prompt(0, 8); // Same content: maps block 0, owns 2.
        assert_eq!(prefill(&mut m, &mut g), 4);
        let other = Sequence::new(1, (50..58).collect(), BS); // Blocks 3, 4.
        let mut other = SequenceGroup::new("r1", other, SamplingParams::greedy(4), 0.0);
        prefill(&mut m, &mut other);
        m.free(9).unwrap(); // Block 1 is now a cached hole; block 0 stays live.
        m.assert_consistent();

        // Shrink to the live set: block 4 moves into the cached hole 1
        // (evicting what it cached), block 3 stays below... the bound is 4.
        m.resize(4, 0).unwrap();
        let moves = m.take_pending().moves;
        assert_eq!((moves.len(), moves[0].src, moves[0].dst), (1, 4, 1));
        m.assert_consistent();
        let tokens: Vec<u32> = (50..58).collect();
        assert_eq!(m.cached_blocks(&tokens, 9), vec![3, 1]);
        assert_eq!(m.cached_blocks(&(0..8).collect::<Vec<_>>(), 9), vec![0]);
    }

    #[test]
    fn cache_blocks_skips_what_is_cached_and_unwinds_on_failure() {
        let mut m = manager(6, 0);
        let tokens: Vec<u32> = (0..13).collect(); // Three full blocks.
        m.cache_blocks(&tokens[..8], |first_new, run, _| {
            assert_eq!((first_new, run.len()), (0, 2));
            Ok(())
        })
        .unwrap();
        assert_eq!((m.num_free_gpu_blocks(), m.cached_hashes().len()), (6, 2));
        // Only the third block is new; a failed write caches nothing more.
        let failed = m.cache_blocks(&tokens, |first_new, run, _| {
            assert_eq!((first_new, run.len()), (2, 3));
            Err(VllmError::Executor("injected".into()))
        });
        assert!(failed.is_err());
        assert_eq!((m.num_free_gpu_blocks(), m.cached_hashes().len()), (6, 2));
        m.cache_blocks(&tokens, |_, _, _| Ok(())).unwrap();
        assert_eq!(m.cached_blocks(&tokens, 9).len(), 3);
        // Nothing to write when everything is cached already.
        m.cache_blocks(&tokens, |_, _, _| panic!("nothing is missing"))
            .unwrap();
        // Of a run longer than the free pool, the leading blocks that fit:
        // with one block held by a sequence, five of these seven.
        m.allocate(&group_with_prompt(0, 3)).unwrap();
        let long: Vec<u32> = (100..128).collect();
        m.cache_blocks(&long, |first_new, run, _| {
            assert_eq!((first_new, run.len()), (0, 5));
            Ok(())
        })
        .unwrap();
        assert_eq!(m.cached_blocks(&long, 9).len(), 5);
        assert_eq!(m.num_free_gpu_blocks(), 5);
        m.assert_consistent();
    }
}
