//! Content hashes of block-aligned token prefixes (§4.4 "shared prefix"),
//! and the one index keyed by them.
//!
//! A full KV block is immutable, so its content is determined by the token
//! prefix it completes. The cumulative hash of that prefix is the block's
//! key in a replica's block index, its published coverage entry, and its key
//! in the fleet's shared tier — one value, fleet-wide. [`ContentIndex`] is
//! the map both stores keep under that key.

use std::collections::HashMap;

use crate::sampling::TokenId;

/// The hash of the empty prefix (the FNV-1a offset basis): the parent of
/// every sequence's first block.
pub const ROOT_HASH: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues the 64-bit FNV-1a hash `parent` over `tokens`: the hash of a
/// prefix extended by one more run of tokens.
#[must_use]
pub fn extend_hash(parent: u64, tokens: &[TokenId]) -> u64 {
    let mut h = parent;
    for &t in tokens {
        for b in t.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Hashes the leading block-aligned chunks of `tokens`: element `k` is the
/// hash of `tokens[..(k + 1) * block_size]`. Cluster routers compare a
/// prompt's chunk hashes against a replica's coverage to find the longest
/// block-aligned prefix whose KV cache is already resident (the fleet-level
/// analog of §4.4 block sharing).
#[must_use]
pub fn chunk_hashes(tokens: &[TokenId], block_size: usize) -> Vec<u64> {
    if block_size == 0 {
        return Vec::new();
    }
    tokens
        .chunks_exact(block_size)
        .scan(ROOT_HASH, |h, chunk| {
            *h = extend_hash(*h, chunk);
            Some(*h)
        })
        .collect()
}

/// One indexed block: what it is, and the value that holds it.
#[derive(Debug)]
struct Indexed<V> {
    /// Hash of the prefix before this block ([`ROOT_HASH`] for a first one).
    parent: u64,
    /// The block's own `block_size` tokens.
    tokens: Vec<TokenId>,
    value: V,
}

/// The content index: hash of a block-aligned token prefix → the value
/// holding the KV of that prefix's last block. A replica's block manager
/// keeps the physical block id there, the fleet's shared tier the
/// serialized block itself; both find a prompt's blocks with [`Self::run`].
#[derive(Debug)]
pub struct ContentIndex<V> {
    block_size: usize,
    entries: HashMap<u64, Indexed<V>>,
    /// Bumped whenever the key set changes (coverage publishers poll it).
    version: u64,
}

impl<V> ContentIndex<V> {
    /// An empty index of `block_size`-token blocks.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    #[must_use]
    pub fn new(block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        Self {
            block_size,
            entries: HashMap::new(),
            version: 0,
        }
    }

    /// Tokens per indexed block.
    #[must_use]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Blocks indexed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is indexed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Counter that moves whenever the set of indexed hashes does.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The value indexed under `hash`, if it really holds `tokens` after
    /// the prefix hashing to `parent`. Hashes come from untrusted prompts,
    /// so a 64-bit collision must read as a miss, never as someone else's
    /// KV.
    fn get(&self, hash: u64, parent: u64, tokens: &[TokenId]) -> Option<&V> {
        self.entries
            .get(&hash)
            .filter(|e| e.parent == parent && e.tokens == tokens)
            .map(|e| &e.value)
    }

    /// The longest indexed run of `tokens`' leading full blocks, as
    /// `(hash, value)` pairs in order: the one place a hit is decided.
    pub fn run<'a>(&'a self, tokens: &'a [TokenId]) -> impl Iterator<Item = (u64, &'a V)> + 'a {
        let mut parent = ROOT_HASH;
        tokens
            .chunks_exact(self.block_size)
            .map_while(move |chunk| {
                let hash = extend_hash(parent, chunk);
                let value = self.get(hash, parent, chunk)?;
                parent = hash;
                Some((hash, value))
            })
    }

    /// Indexes `value` as the block of `tokens` after the prefix hashing to
    /// `parent`, under `hash`, unless the key is taken (the first holder of
    /// a content keeps it). Returns whether it was inserted.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is not one block long.
    pub fn insert(&mut self, hash: u64, parent: u64, tokens: &[TokenId], value: V) -> bool {
        assert_eq!(tokens.len(), self.block_size, "one block of tokens");
        if self.entries.contains_key(&hash) {
            return false;
        }
        let entry = Indexed {
            parent,
            tokens: tokens.to_vec(),
            value,
        };
        self.entries.insert(hash, entry);
        self.version += 1;
        true
    }

    /// Removes and returns what `hash` indexes.
    pub fn remove(&mut self, hash: u64) -> Option<V> {
        let entry = self.entries.remove(&hash)?;
        self.version += 1;
        Some(entry.value)
    }

    /// The value under a key the caller already holds (one it indexed or
    /// walked to), to update in place.
    pub fn value_mut(&mut self, hash: u64) -> Option<&mut V> {
        self.entries.get_mut(&hash).map(|e| &mut e.value)
    }

    /// Every `(hash, value)` indexed, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.entries.iter().map(|(&hash, e)| (hash, &e.value))
    }

    /// Forgets everything.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.version += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handoff::KvBlockBytes;

    #[test]
    fn chunk_hashes_are_cumulative_and_ignore_the_partial_tail() {
        let tokens: Vec<TokenId> = (0..10).collect();
        let hashes = chunk_hashes(&tokens, 4);
        assert_eq!(hashes.len(), 2);
        assert_eq!(hashes[0], extend_hash(ROOT_HASH, &tokens[..4]));
        assert_eq!(hashes[1], extend_hash(ROOT_HASH, &tokens[..8]));
        assert_eq!(hashes, chunk_hashes(&tokens[..8], 4));
        assert!(chunk_hashes(&tokens, 0).is_empty());
    }

    #[test]
    fn run_is_the_longest_indexed_leading_run() {
        let mut index = ContentIndex::new(4);
        let tokens: Vec<TokenId> = (0..14).collect();
        let hashes = chunk_hashes(&tokens, 4);
        // Blocks 0 and 1 indexed, block 2 not: the run is the first two.
        index.insert(hashes[0], ROOT_HASH, &tokens[..4], 'a');
        index.insert(hashes[1], hashes[0], &tokens[4..8], 'b');
        let run: Vec<_> = index.run(&tokens).collect();
        assert_eq!(run, vec![(hashes[0], &'a'), (hashes[1], &'b')]);
        assert_eq!(index.run(&tokens[..7]).count(), 1, "whole blocks only");
        assert_eq!(index.run(&[9, 9, 9, 9]).count(), 0);
        let version = index.version();
        assert_eq!(index.remove(hashes[0]), Some('a'));
        assert_eq!(index.run(&tokens).count(), 0, "no root, no run");
        assert!(index.version() > version);
    }

    /// A key forged to collide — another prefix's hash claimed by other
    /// tokens, or by the same tokens after another prefix — reads as a
    /// miss, and the first holder of a key keeps it. One check for both
    /// users of the index: the block manager's block ids and the fleet
    /// tier's serialized blocks.
    fn forged_hash_is_a_miss<V: Clone + PartialEq + std::fmt::Debug>(real: V, forged: V) {
        let tokens: Vec<TokenId> = vec![1, 2, 3, 4];
        let other: Vec<TokenId> = vec![1, 2, 3, 5];
        let hash = extend_hash(ROOT_HASH, &tokens);

        let mut index = ContentIndex::new(4);
        assert!(index.insert(hash, ROOT_HASH, &other, forged.clone()));
        assert_eq!(index.run(&tokens).count(), 0, "other tokens under the key");
        let mut index = ContentIndex::new(4);
        assert!(index.insert(hash, 9, &tokens, forged.clone()));
        assert_eq!(index.run(&tokens).count(), 0, "another parent");

        let mut index = ContentIndex::new(4);
        assert!(index.insert(hash, ROOT_HASH, &tokens, real.clone()));
        assert!(!index.insert(hash, ROOT_HASH, &other, forged));
        let run: Vec<_> = index.run(&tokens).map(|(h, v)| (h, v.clone())).collect();
        assert_eq!(run, vec![(hash, real)]);
        assert_eq!(index.run(&other).count(), 0);
    }

    #[test]
    fn forged_hashes_are_misses_for_block_ids_and_serialized_blocks() {
        forged_hash_is_a_miss::<usize>(7, 8);
        let f32_block = KvBlockBytes::F32 {
            k: vec![1.0],
            v: vec![2.0],
        };
        forged_hash_is_a_miss(f32_block, KvBlockBytes::empty());
    }
}
