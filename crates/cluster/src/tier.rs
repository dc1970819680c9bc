//! Cluster-shared CPU-tier prefix cache.
//!
//! A replica's own block cache (§4.4) only helps requests that land on it.
//! The tier lifts that one level: when a prefill replica computes the KV of
//! a prompt's prefix, it publishes the serialized blocks here, and *any*
//! replica can later install them locally instead of recomputing. A million
//! users sharing a system prompt then prefill it once per fleet, not once
//! per replica, no matter where the router lands them.
//!
//! The tier is a per-block store under the block manager's own key: a
//! [`ContentIndex`] of serialized blocks, where `BlockSpaceManager` keeps
//! one of physical block ids. So:
//!
//! * **One key, one check, one walk** — a block is indexed under the hash of
//!   the token prefix it completes and verified against its parent hash and
//!   own tokens; [`PrefixTier::fetch`] is [`ContentIndex::run`], the walk a
//!   replica's admission uses, and hands out a copy (nothing is pinned).
//! * **Held once** — [`PrefixTier::publish`] inserts only the blocks the
//!   tier lacks, so a block several prefixes share costs one slot.
//! * **The block manager's eviction order** — every publish and hit touches
//!   its whole run, tail first, and over capacity the least recently
//!   touched block goes first. A block is therefore never older than a
//!   block extending it: a run loses its tail before its root, and a root
//!   other runs share lives as long as the most recently touched of them.
//!
//! Exported metrics: `vllm_prefix_tier_{hits,misses,insertions,evictions}_total`
//! counters (insertions and evictions count blocks) plus the
//! `vllm_prefix_tier_blocks` gauge.

use vllm_core::handoff::KvBlockBytes;
use vllm_core::prefix::{extend_hash, ContentIndex, ROOT_HASH};
use vllm_core::telemetry::{Counter, Gauge, Telemetry};
use vllm_core::TokenId;

use crate::flow::PrefixKv;

/// One held block: its bytes and when it was last published or hit.
#[derive(Debug)]
struct TierBlock {
    kv: KvBlockBytes,
    touched: u64,
}

/// The tier's instruments: the only copy of its counts.
#[derive(Debug)]
pub struct TierMetrics {
    /// Lookups whose run held at least the first block.
    pub hits: Counter,
    /// Lookups that found nothing.
    pub misses: Counter,
    /// Blocks inserted.
    pub insertions: Counter,
    /// Blocks evicted under capacity pressure.
    pub evictions: Counter,
    blocks: Gauge,
}

/// The cluster-shared prefix store (capacity counted in KV blocks).
#[derive(Debug)]
pub struct PrefixTier {
    capacity: usize,
    index: ContentIndex<TierBlock>,
    clock: u64,
    metrics: TierMetrics,
}

impl PrefixTier {
    /// An empty tier holding at most `capacity_blocks` blocks, registering
    /// its `vllm_prefix_tier_*` instruments on `telemetry`.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    #[must_use]
    pub fn new(capacity_blocks: usize, block_size: usize, telemetry: &Telemetry) -> Self {
        let r = telemetry.registry();
        let metrics = TierMetrics {
            hits: r.counter(
                "vllm_prefix_tier_hits_total",
                "Tier lookups that found the first block of the prefix.",
            ),
            misses: r.counter(
                "vllm_prefix_tier_misses_total",
                "Tier lookups that found nothing.",
            ),
            insertions: r.counter(
                "vllm_prefix_tier_insertions_total",
                "KV blocks published into the shared tier.",
            ),
            evictions: r.counter(
                "vllm_prefix_tier_evictions_total",
                "Tier blocks evicted under capacity pressure.",
            ),
            blocks: r.gauge("vllm_prefix_tier_blocks", "KV blocks held by the tier."),
        };
        Self {
            capacity: capacity_blocks,
            index: ContentIndex::new(block_size),
            clock: 0,
            metrics,
        }
    }

    /// The most blocks the tier holds.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Blocks currently held.
    #[must_use]
    pub fn used_blocks(&self) -> usize {
        self.index.len()
    }

    /// The tier's hit, miss, insertion and eviction counters.
    #[must_use]
    pub fn metrics(&self) -> &TierMetrics {
        &self.metrics
    }

    /// Publishes the KV of `tokens`' leading full blocks, `blocks[k]` being
    /// block `k`'s: the ones the tier lacks are inserted, as many as the
    /// capacity holds, and the whole run counts as just touched.
    pub fn publish(&mut self, tokens: &[TokenId], blocks: Vec<KvBlockBytes>) {
        let mut run = Vec::new();
        let mut parent = ROOT_HASH;
        let chunks = tokens.chunks_exact(self.index.block_size());
        for (chunk, kv) in chunks.zip(blocks).take(self.capacity) {
            let hash = extend_hash(parent, chunk);
            let block = TierBlock { kv, touched: 0 };
            if self.index.insert(hash, parent, chunk, block) {
                self.metrics.insertions.inc();
            }
            run.push(hash);
            parent = hash;
        }
        self.touch(&run);
        while self.index.len() > self.capacity {
            let oldest = self.index.iter().min_by_key(|(_, b)| b.touched);
            let (hash, _) = oldest.expect("over capacity, so not empty");
            self.index.remove(hash);
            self.metrics.evictions.inc();
        }
        self.metrics.blocks.set(self.index.len() as f64);
    }

    /// A copy of the longest run of `tokens`' leading blocks the tier holds,
    /// with the tokens it covers: a hit when it holds at least the first.
    pub fn fetch(&mut self, tokens: &[TokenId]) -> Option<PrefixKv> {
        let run = self.index.run(tokens).map(|(h, b)| (h, b.kv.clone()));
        let (run, blocks): (Vec<u64>, Vec<KvBlockBytes>) = run.unzip();
        if run.is_empty() {
            self.metrics.misses.inc();
            return None;
        }
        self.metrics.hits.inc();
        self.touch(&run);
        let covered = tokens[..run.len() * self.index.block_size()].to_vec();
        Some((covered, blocks))
    }

    /// Marks `run` just used, tail first, so that no block is older than a
    /// block extending it.
    fn touch(&mut self, run: &[u64]) {
        for &hash in run.iter().rev() {
            if let Some(b) = self.index.value_mut(hash) {
                self.clock += 1;
                b.touched = self.clock;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks(n: usize) -> Vec<KvBlockBytes> {
        (0..n).map(|_| KvBlockBytes::empty()).collect()
    }

    fn toks(tag: u32, len: usize) -> Vec<TokenId> {
        (0..len as u32).map(|i| tag * 1000 + i).collect()
    }

    fn tier(capacity: usize) -> (PrefixTier, Telemetry) {
        let telemetry = Telemetry::new();
        (PrefixTier::new(capacity, 4, &telemetry), telemetry)
    }

    /// How many leading blocks of `tokens` the tier holds, without counting
    /// a lookup or touching anything.
    fn held(tier: &PrefixTier, tokens: &[TokenId]) -> usize {
        tier.index.run(tokens).count()
    }

    #[test]
    fn fetch_returns_the_longest_held_run() {
        let (mut tier, _t) = tier(64);
        let p = toks(1, 8);
        tier.publish(&p, blocks(2));
        // A prompt extending the prefix hits its two blocks; a partial block
        // and unrelated tokens do not count.
        let mut prompt = p.clone();
        prompt.extend([9, 9, 9]);
        let (covered, kv) = tier.fetch(&prompt).unwrap();
        assert_eq!((covered, kv.len()), (p.clone(), 2));
        assert!(tier.fetch(&toks(2, 8)).is_none());
        assert!(tier.fetch(&p[..3]).is_none());
        // A prompt diverging in its second block still gets the first.
        let mut diverging = p[..4].to_vec();
        diverging.extend([7, 7, 7, 7]);
        assert_eq!(tier.fetch(&diverging).unwrap().0, p[..4].to_vec());
        let m = tier.metrics();
        assert_eq!((m.hits.get(), m.misses.get()), (2, 2));
    }

    #[test]
    fn two_cuts_sharing_a_leading_block_store_it_once() {
        let (mut tier, telemetry) = tier(64);
        let a = toks(1, 12);
        let mut b = a[..4].to_vec();
        b.extend(toks(2, 4));
        tier.publish(&a, blocks(3));
        tier.publish(&b, blocks(2));
        assert_eq!(tier.used_blocks(), 4, "three of a, one of b");
        assert_eq!(tier.metrics().insertions.get(), 4, "counted in blocks");
        // Republishing held content inserts nothing.
        tier.publish(&a[..8], blocks(2));
        assert_eq!(tier.metrics().insertions.get(), 4);
        assert_eq!((held(&tier, &a), held(&tier, &b)), (3, 2));
        let snap = telemetry.registry().snapshot();
        assert_eq!(snap.counter("vllm_prefix_tier_insertions_total"), Some(4));
        assert_eq!(snap.gauge("vllm_prefix_tier_blocks"), Some(4.0));
        assert_eq!(snap.gauge("vllm_prefix_tier_entries"), None);
    }

    #[test]
    fn eviction_takes_tails_first_and_keeps_a_recently_shared_root() {
        let (mut tier, _t) = tier(5);
        let a = toks(1, 12); // r, a1, a2
        let mut b = a[..4].to_vec(); // r, b1
        b.extend(toks(2, 4));
        tier.publish(&a, blocks(3));
        tier.publish(&b, blocks(2));
        // Oldest first: a2, a1, b1, r. A fifth block fits; a sixth takes
        // `a`'s tail, not the root every run starts with.
        tier.publish(&toks(3, 4), blocks(1));
        tier.publish(&toks(4, 4), blocks(1));
        assert_eq!(tier.metrics().evictions.get(), 1);
        assert_eq!((held(&tier, &a), held(&tier, &b)), (2, 2), "a2 went first");
        // A hit on `a` touches r and a1: the next victim is b1, and the
        // root `b` shares with the run just hit survives it.
        assert_eq!(tier.fetch(&a).unwrap().1.len(), 2);
        tier.publish(&toks(5, 4), blocks(1));
        assert_eq!((held(&tier, &a), held(&tier, &b)), (2, 1));
        assert_eq!(tier.used_blocks(), 5);
    }

    #[test]
    fn a_run_longer_than_the_tier_keeps_its_leading_blocks() {
        let (mut tier, _t) = tier(2);
        let p = toks(1, 16);
        tier.publish(&p, blocks(4));
        assert_eq!((tier.used_blocks(), held(&tier, &p)), (2, 2));
        assert_eq!(tier.metrics().evictions.get(), 0);
    }
}
