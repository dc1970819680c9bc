//! Content hashes of block-aligned token prefixes (§4.4 "shared prefix").
//!
//! A full KV block is immutable, so its content is determined by the token
//! prefix it completes. The cumulative hash of that prefix is the block's
//! key in the block manager's content index, a replica's published coverage
//! entry, and the shared tier's content key — one value, fleet-wide.

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
