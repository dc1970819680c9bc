//! Cluster-shared CPU-tier prefix cache.
//!
//! A replica's own block cache (§4.4) only helps requests that land on it.
//! The tier lifts that one level: when a prefill replica computes the KV of
//! a shareable prefix, it publishes the serialized blocks here — keyed by a
//! content hash of the prefix tokens — and *any* replica can later install
//! them locally instead of recomputing. A million users sharing a system
//! prompt then prefill it once per fleet, not once per replica, no matter
//! where the router lands them.
//!
//! The tier is a passive store:
//!
//! * **Content-hash keyed** — the key is the cumulative FNV-1a chunk hash of
//!   the full prefix ([`vllm_core::chunk_hashes`], the same value a
//!   replica's block index keys the prefix's last block under), so the same
//!   token sequence maps to the same entry regardless of which replica
//!   produced it, and lookups compose with the router's coverage matching.
//! * **Copied out** — [`PrefixTier::fetch`] hands a replica a copy under the
//!   caller's `&mut`, so no entry is ever pinned.
//! * **Eviction-scored** — over capacity, entries are evicted in ascending
//!   score order, `score = hits / blocks` with logical-clock recency as
//!   tie-break: keep what earns the most reuse per block held, and among
//!   equals, keep what was touched last.
//!
//! Exported metrics: `vllm_prefix_tier_{hits,misses,insertions,evictions}_total`
//! counters plus `vllm_prefix_tier_entries` / `vllm_prefix_tier_blocks`
//! gauges.

use std::collections::HashMap;

use vllm_core::handoff::KvBlockBytes;
use vllm_core::telemetry::{Counter, Gauge, Telemetry};
use vllm_core::{chunk_hashes, TokenId};

/// One published prefix.
#[derive(Debug, Clone)]
pub struct TierEntry {
    /// The prefix tokens (block-aligned length).
    pub tokens: Vec<TokenId>,
    /// Serialized KV, one entry per block.
    pub blocks: Vec<KvBlockBytes>,
    /// Cumulative chunk hashes of the tokens (for coverage matching).
    pub hashes: Vec<u64>,
    /// Lookup hits since publication.
    hits: u64,
    /// Logical time of the last hit or publication.
    last_touch: u64,
}

impl TierEntry {
    /// Eviction score: hits earned per block held. Higher is more worth
    /// keeping.
    fn score(&self) -> f64 {
        self.hits as f64 / self.blocks.len().max(1) as f64
    }
}

/// Plain-counter mirror of the tier telemetry (report writers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Lookups that found a usable prefix.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Prefixes published.
    pub insertions: u64,
    /// Entries evicted under capacity pressure.
    pub evictions: u64,
}

#[derive(Debug)]
struct TierMetrics {
    hits: Counter,
    misses: Counter,
    insertions: Counter,
    evictions: Counter,
    entries: Gauge,
    blocks: Gauge,
}

/// The cluster-shared prefix store (capacity counted in KV blocks).
#[derive(Debug)]
pub struct PrefixTier {
    capacity_blocks: usize,
    block_size: usize,
    entries: HashMap<u64, TierEntry>,
    used_blocks: usize,
    clock: u64,
    stats: TierStats,
    metrics: Option<TierMetrics>,
}

impl PrefixTier {
    /// An empty tier holding at most `capacity_blocks` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    #[must_use]
    pub fn new(capacity_blocks: usize, block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        Self {
            capacity_blocks,
            block_size,
            entries: HashMap::new(),
            used_blocks: 0,
            clock: 0,
            stats: TierStats::default(),
            metrics: None,
        }
    }

    /// Registers the `vllm_prefix_tier_*` instruments on `telemetry`.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        let r = telemetry.registry();
        self.metrics = Some(TierMetrics {
            hits: r.counter(
                "vllm_prefix_tier_hits_total",
                "Tier lookups that found a usable shared prefix.",
            ),
            misses: r.counter(
                "vllm_prefix_tier_misses_total",
                "Tier lookups that found nothing.",
            ),
            insertions: r.counter(
                "vllm_prefix_tier_insertions_total",
                "Prefixes published into the shared tier.",
            ),
            evictions: r.counter(
                "vllm_prefix_tier_evictions_total",
                "Tier entries evicted under capacity pressure.",
            ),
            entries: r.gauge("vllm_prefix_tier_entries", "Entries resident in the tier."),
            blocks: r.gauge("vllm_prefix_tier_blocks", "KV blocks held by the tier."),
        });
        self.publish_gauges();
    }

    /// Plain-counter mirror of the tier telemetry.
    #[must_use]
    pub fn stats(&self) -> TierStats {
        self.stats
    }

    /// Blocks currently held.
    #[must_use]
    pub fn used_blocks(&self) -> usize {
        self.used_blocks
    }

    /// Entries currently resident.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the tier holds nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Content key of a token prefix: the cumulative chunk hash of its last
    /// full block (identical tokens ⇒ identical key, fleet-wide).
    #[must_use]
    pub fn content_key(&self, tokens: &[TokenId]) -> Option<u64> {
        chunk_hashes(tokens, self.block_size).last().copied()
    }

    /// Publishes a prefix computed by some replica. The token length is
    /// truncated to whole blocks (the tier only stores what other replicas
    /// can install block-aligned); returns the content key, or `None` when
    /// the prefix is shorter than one block or larger than the whole tier.
    pub fn publish(&mut self, tokens: &[TokenId], blocks: Vec<KvBlockBytes>) -> Option<u64> {
        let whole = (tokens.len() / self.block_size) * self.block_size;
        if whole == 0 {
            return None;
        }
        let tokens = &tokens[..whole];
        let blocks = blocks
            .into_iter()
            .take(whole / self.block_size)
            .collect::<Vec<_>>();
        if blocks.len() != whole / self.block_size {
            return None;
        }
        let hashes = chunk_hashes(tokens, self.block_size);
        let key = *hashes.last().expect("whole > 0");
        self.clock += 1;
        if let Some(e) = self.entries.get_mut(&key) {
            // Already published (same content): refresh recency only.
            e.last_touch = self.clock;
            return Some(key);
        }
        if !self.make_room(blocks.len()) {
            return None;
        }
        self.used_blocks += blocks.len();
        self.entries.insert(
            key,
            TierEntry {
                tokens: tokens.to_vec(),
                blocks,
                hashes,
                hits: 0,
                last_touch: self.clock,
            },
        );
        self.stats.insertions += 1;
        if let Some(m) = &self.metrics {
            m.insertions.inc();
        }
        self.publish_gauges();
        Some(key)
    }

    /// Finds the longest published prefix of `prompt` (block-aligned).
    /// Counts a hit or miss; a hit bumps the entry's score and recency.
    pub fn lookup(&mut self, prompt: &[TokenId]) -> Option<u64> {
        self.clock += 1;
        let hashes = chunk_hashes(prompt, self.block_size);
        // Longest prefix first: deeper chunks subsume shallower ones.
        for (i, key) in hashes.iter().enumerate().rev() {
            if let Some(e) = self.entries.get_mut(key) {
                // Guard against hash aliasing across different contents.
                if e.tokens.len() == (i + 1) * self.block_size && prompt.starts_with(&e.tokens) {
                    e.hits += 1;
                    e.last_touch = self.clock;
                    self.stats.hits += 1;
                    if let Some(m) = &self.metrics {
                        m.hits.inc();
                    }
                    return Some(*key);
                }
            }
        }
        self.stats.misses += 1;
        if let Some(m) = &self.metrics {
            m.misses.inc();
        }
        None
    }

    /// [`lookup`](Self::lookup) plus a copy of the hit entry's tokens and
    /// blocks: what a replica installs.
    pub fn fetch(&mut self, prompt: &[TokenId]) -> Option<(Vec<TokenId>, Vec<KvBlockBytes>)> {
        let key = self.lookup(prompt)?;
        let e = &self.entries[&key];
        Some((e.tokens.clone(), e.blocks.clone()))
    }

    /// The entry for a content key.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<&TierEntry> {
        self.entries.get(&key)
    }

    /// Evicts entries (ascending score, oldest-touch tie-break) until
    /// `needed` more blocks fit. Returns whether they do.
    fn make_room(&mut self, needed: usize) -> bool {
        if needed > self.capacity_blocks {
            return false;
        }
        while self.used_blocks + needed > self.capacity_blocks {
            let victim = self
                .entries
                .iter()
                .min_by(|(_, a), (_, b)| {
                    a.score()
                        .total_cmp(&b.score())
                        .then(a.last_touch.cmp(&b.last_touch))
                })
                .map(|(k, _)| *k);
            let key = victim.expect("blocks are in use, so an entry holds them");
            let e = self.entries.remove(&key).expect("victim exists");
            self.used_blocks -= e.blocks.len();
            self.stats.evictions += 1;
            if let Some(m) = &self.metrics {
                m.evictions.inc();
            }
        }
        self.publish_gauges();
        true
    }

    fn publish_gauges(&self) {
        if let Some(m) = &self.metrics {
            m.entries.set(self.entries.len() as f64);
            m.blocks.set(self.used_blocks as f64);
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

    #[test]
    fn publish_lookup_round_trip() {
        let mut tier = PrefixTier::new(64, 4);
        let p = toks(1, 8);
        let key = tier.publish(&p, blocks(2)).unwrap();
        // A prompt extending the prefix hits; an unrelated one misses.
        let mut prompt = p.clone();
        prompt.extend([9, 9, 9]);
        assert_eq!(tier.lookup(&prompt), Some(key));
        assert_eq!(tier.lookup(&toks(2, 8)), None);
        assert_eq!(tier.stats().hits, 1);
        assert_eq!(tier.stats().misses, 1);
        let e = tier.get(key).unwrap();
        assert_eq!(e.tokens, p);
        assert_eq!(e.blocks.len(), 2);
    }

    #[test]
    fn sub_block_prefixes_are_not_published() {
        let mut tier = PrefixTier::new(64, 16);
        assert_eq!(tier.publish(&toks(1, 7), blocks(1)), None);
        // Partial trailing blocks are truncated to whole ones.
        let key = tier.publish(&toks(1, 20), blocks(2)).unwrap();
        assert_eq!(tier.get(key).unwrap().tokens.len(), 16);
        assert_eq!(tier.get(key).unwrap().blocks.len(), 1);
    }

    #[test]
    fn longest_published_prefix_wins() {
        let mut tier = PrefixTier::new(64, 4);
        let long = toks(1, 12);
        let short_key = tier.publish(&long[..4], blocks(1)).unwrap();
        let long_key = tier.publish(&long, blocks(3)).unwrap();
        assert_ne!(short_key, long_key);
        assert_eq!(tier.lookup(&long), Some(long_key));
        // A prompt only covering the short entry still hits it.
        let mut short_prompt = long[..4].to_vec();
        short_prompt.push(777);
        assert_eq!(tier.lookup(&short_prompt), Some(short_key));
    }

    #[test]
    fn eviction_prefers_low_score_then_oldest_touch() {
        let mut tier = PrefixTier::new(4, 4);
        let a = tier.publish(&toks(1, 8), blocks(2)).unwrap(); // 2 blocks
        let b = tier.publish(&toks(2, 8), blocks(2)).unwrap(); // 2 blocks
                                                               // `b` earns a hit; `a` stays cold → `a` is the eviction victim.
        assert_eq!(tier.lookup(&toks(2, 8)), Some(b));
        let c = tier.publish(&toks(3, 8), blocks(2)).unwrap();
        assert!(tier.get(a).is_none(), "cold entry must be evicted first");
        assert!(tier.get(b).is_some());
        assert!(tier.get(c).is_some());
        assert_eq!(tier.stats().evictions, 1);
        assert_eq!(tier.used_blocks(), 4);
    }

    #[test]
    fn oversized_prefix_is_rejected() {
        let mut tier = PrefixTier::new(2, 4);
        assert_eq!(tier.publish(&toks(1, 16), blocks(4)), None);
        assert!(tier.is_empty());
    }

    #[test]
    fn republishing_same_content_is_idempotent() {
        let mut tier = PrefixTier::new(8, 4);
        let k1 = tier.publish(&toks(1, 8), blocks(2)).unwrap();
        let k2 = tier.publish(&toks(1, 8), blocks(2)).unwrap();
        assert_eq!(k1, k2);
        assert_eq!(tier.len(), 1);
        assert_eq!(tier.stats().insertions, 1);
        assert_eq!(tier.used_blocks(), 2);
    }

    #[test]
    fn metrics_mirror_stats() {
        let telemetry = Telemetry::new();
        let mut tier = PrefixTier::new(8, 4);
        tier.attach_telemetry(&telemetry);
        tier.publish(&toks(1, 8), blocks(2)).unwrap();
        tier.lookup(&toks(1, 8)).unwrap();
        tier.lookup(&toks(9, 8));
        let snap = telemetry.registry().snapshot();
        assert_eq!(snap.counter("vllm_prefix_tier_hits_total"), Some(1));
        assert_eq!(snap.counter("vllm_prefix_tier_misses_total"), Some(1));
        assert_eq!(snap.counter("vllm_prefix_tier_insertions_total"), Some(1));
        assert_eq!(snap.gauge("vllm_prefix_tier_blocks"), Some(2.0));
        assert_eq!(snap.gauge("vllm_prefix_tier_entries"), Some(1.0));
    }
}
