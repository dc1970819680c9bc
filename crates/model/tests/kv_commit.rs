//! Building a KV cache commits no memory: every plane is its own zeroed
//! allocation, so the OS commits its pages when a token is first written,
//! not when the pool is built (the paper's §4.2 block engine commits
//! physical blocks on demand).
//!
//! One test in its own binary, so no other test's allocations land in the
//! resident-set readings. Linux only: it reads `VmRSS` from
//! `/proc/self/status`.
#![cfg(target_os = "linux")]

use vllm_model::backend::KvElement;
use vllm_model::KvCache;

/// Resident set size of this process, in bytes.
fn rss_bytes() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("VmRSS line");
    let kb: usize = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmRSS value in kB");
    kb * 1024
}

#[test]
fn building_a_kv_cache_commits_its_pages_only_on_first_write() {
    let (n_layers, blocks, block_size, hidden) = (4, 512, 16, 128);
    let before = rss_bytes();
    let mut cache =
        KvCache::with_element(n_layers, blocks, blocks, block_size, hidden, KvElement::F32);
    let built = rss_bytes();
    let bytes = cache.gpu.num_bytes() + cache.cpu.num_bytes();
    assert!(
        bytes >= 64 << 20,
        "the cache must be large enough to see: {bytes} bytes"
    );
    let rise = built.saturating_sub(before);
    assert!(
        rise < bytes / 4,
        "building a {} MB cache raised RSS by {} MB",
        bytes >> 20,
        rise >> 20
    );

    // The reading can see a commit: writing every slot of the GPU pool
    // touches every page of its planes.
    let (key, value) = (vec![1.0; hidden], vec![-1.0; hidden]);
    for layer in 0..n_layers {
        for block in 0..blocks {
            for slot in 0..block_size {
                cache.gpu.write(layer, block, slot, &key, &value);
            }
        }
    }
    let written = rss_bytes().saturating_sub(built);
    assert!(
        written >= cache.gpu.num_bytes() / 2,
        "writing the {} MB GPU pool raised RSS by only {} MB",
        cache.gpu.num_bytes() >> 20,
        written >> 20
    );
}
