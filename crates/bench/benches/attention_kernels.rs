//! Criterion microbenchmark backing Fig. 18a: the paged decode-attention
//! kernel vs the contiguous reference, across context lengths and block
//! sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use vllm_model::{backend, contiguous_attention_decode, pool, KvPool, SeqRows};

const N_HEADS: usize = 8;
const HEAD_DIM: usize = 64;
const HIDDEN: usize = N_HEADS * HEAD_DIM;

fn fill(seed: u64, len: usize) -> Vec<f32> {
    let mut s = seed | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s % 2000) as f32 / 1000.0) - 1.0
        })
        .collect()
}

fn build_pool(k: &[f32], v: &[f32], ctx: usize, block_size: usize) -> (KvPool, Vec<usize>) {
    let n_blocks = ctx.div_ceil(block_size);
    let element = backend::selected().kv_layout().element;
    let mut pool = KvPool::with_element(1, n_blocks + 1, block_size, HIDDEN, element);
    let table: Vec<usize> = (0..n_blocks).map(|j| n_blocks - j).collect();
    for t in 0..ctx {
        pool.write(
            0,
            table[t / block_size],
            t % block_size,
            &k[t * HIDDEN..(t + 1) * HIDDEN],
            &v[t * HIDDEN..(t + 1) * HIDDEN],
        );
    }
    (pool, table)
}

fn bench_attention(c: &mut Criterion) {
    let mut group = c.benchmark_group("decode_attention");
    for &ctx in &[128usize, 512, 1024] {
        let q = fill(1, HIDDEN);
        let k = fill(2, ctx * HIDDEN);
        let v = fill(3, ctx * HIDDEN);
        let mut out = vec![0.0f32; HIDDEN];

        group.bench_with_input(BenchmarkId::new("contiguous", ctx), &ctx, |b, &ctx| {
            b.iter(|| {
                contiguous_attention_decode(
                    black_box(&q),
                    black_box(&k),
                    black_box(&v),
                    ctx,
                    N_HEADS,
                    HEAD_DIM,
                    &mut out,
                );
            });
        });
        for &bs in &[8usize, 16, 32] {
            let (pool, table) = build_pool(&k, &v, ctx, bs);
            group.bench_with_input(
                BenchmarkId::new(format!("paged_bs{bs}"), ctx),
                &ctx,
                |b, &ctx| {
                    b.iter(|| {
                        backend::selected().paged_attention(
                            black_box(&q),
                            black_box(&pool),
                            0,
                            &[SeqRows::decode(black_box(&table), ctx)],
                            N_HEADS,
                            HEAD_DIM,
                            pool::global(),
                            &mut out,
                        );
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_attention);
criterion_main!(benches);
