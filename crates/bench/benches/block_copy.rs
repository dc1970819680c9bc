//! Criterion microbenchmark of the "fused block copy" path (§5.1): one
//! batched pass over many pending copy-on-write copies vs issuing them as
//! separate operations, on the real KV storage.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use vllm_core::block_manager::BlockCopy;
use vllm_core::executor::CacheOps;
use vllm_model::KvCache;

const LAYERS: usize = 8;
const HIDDEN: usize = 512;
const BLOCK_SIZE: usize = 16;

fn cache_with_blocks(n: usize) -> KvCache {
    KvCache::new(LAYERS, n, n, BLOCK_SIZE, HIDDEN)
}

fn copies(n: usize) -> Vec<BlockCopy> {
    (0..n).map(|i| BlockCopy { src: i, dst: i + n }).collect()
}

fn bench_copies(c: &mut Criterion) {
    let mut g = c.benchmark_group("block_copy");
    for &n in &[4usize, 16, 64] {
        // Batched: one `apply` over the whole pending list (the fused path).
        g.bench_with_input(BenchmarkId::new("fused_batch", n), &n, |b, &n| {
            let mut cache = cache_with_blocks(2 * n);
            let ops = CacheOps {
                copies: copies(n),
                ..Default::default()
            };
            b.iter(|| cache.apply(black_box(&ops)));
        });
        // Unbatched: one `apply` per copy (models per-copy launch overhead).
        g.bench_with_input(BenchmarkId::new("per_copy", n), &n, |b, &n| {
            let mut cache = cache_with_blocks(2 * n);
            let singles: Vec<CacheOps> = copies(n)
                .into_iter()
                .map(|cp| CacheOps {
                    copies: vec![cp],
                    ..Default::default()
                })
                .collect();
            b.iter(|| {
                for ops in &singles {
                    cache.apply(black_box(ops)).unwrap();
                }
            });
        });
        // Swap transfers of the same volume, for scale.
        g.bench_with_input(BenchmarkId::new("swap_out", n), &n, |b, &n| {
            let mut cache = cache_with_blocks(2 * n);
            let ops = CacheOps {
                swap_out: copies(n),
                ..Default::default()
            };
            b.iter(|| cache.apply(black_box(&ops)));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_copies);
criterion_main!(benches);
