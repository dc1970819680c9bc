//! Paged KV cache storage (§4.2, §5.1).
//!
//! A [`KvPool`] owns one contiguous allocation per layer ("the block engine
//! allocates a contiguous chunk and divides it into physical KV blocks") and
//! addresses token slots by `(physical block, offset)`. Within a block the
//! two tiles are laid out for the way the attention kernel reads them (the
//! "memory layout optimized for block read" of §5.1): **V slot-major**
//! (`[slot][hidden]`, the weighted sum runs across `hidden`) and **K
//! dimension-major** (`[hidden][slot]`, as in vLLM's own K cache, so the
//! score pass reads the slots of a block as contiguous lanes). Block copies,
//! swaps and handoff payloads move whole tiles and never look inside. The
//! element type of the stored K/V scalars is chosen by the kernel backend's
//! [`KvElement`] layout: plain `f32`, or `i8` with one `f32` dequantization
//! scale per stored vector (`quant-kv8`), which shrinks bytes-per-block and
//! therefore buys more blocks per memory budget. [`KvCache`] pairs a GPU
//! pool with a CPU pool (swap space) and applies the scheduler's cache
//! operations: batched copy-on-write copies ("fused block copy", §5.1) and
//! swap transfers (§4.5).

use vllm_core::block::Device;
use vllm_core::error::{Result, VllmError};
use vllm_core::executor::CacheOps;
use vllm_core::handoff::KvBlockBytes;

use crate::backend::KvElement;

/// Backing storage for one pool, one variant per [`KvElement`].
#[derive(Debug, Clone)]
enum KvStorage {
    /// Plain f32 K/V: `num_blocks * block_size * hidden` floats per layer.
    F32 { k: Vec<Vec<f32>>, v: Vec<Vec<f32>> },
    /// int8 K/V with one f32 scale per stored vector: values are
    /// `num_blocks * block_size * hidden` bytes per layer, scales are
    /// `num_blocks * block_size` floats per layer (slot-major).
    Int8 {
        k: Vec<Vec<i8>>,
        v: Vec<Vec<i8>>,
        k_scale: Vec<Vec<f32>>,
        v_scale: Vec<Vec<f32>>,
    },
}

/// One K or V block of one layer — the tile the PagedAttention kernel
/// works on: `block_size × hidden` contiguous scalars (see
/// [`KvPool::key_tile`] and [`KvPool::value_tile`] for the two layouts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KvTile<'a> {
    /// Plain f32 vectors.
    F32(&'a [f32]),
    /// int8 vectors with one dequantization scale per slot.
    Int8 {
        /// Quantized values, laid out like the f32 tile.
        q: &'a [i8],
        /// Per-slot scales, `block_size`.
        scales: &'a [f32],
    },
}

/// Per-layer paged key/value storage for one device.
#[derive(Debug, Clone)]
pub struct KvPool {
    storage: KvStorage,
    n_layers: usize,
    num_blocks: usize,
    block_size: usize,
    hidden: usize,
}

/// Quantizes one vector into int8, element `i` landing at `dst[i * stride]`:
/// `scale = max|x| / 127`, elements `round(x / scale)`. Returns the scale (0
/// for an all-zero vector, whose dequantization is exactly zero).
/// Reconstruction error per element is at most `scale / 2`.
fn quantize_slot(src: &[f32], dst: &mut [i8], stride: usize) -> f32 {
    let max_abs = src.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
    let inv = if max_abs == 0.0 { 0.0 } else { 127.0 / max_abs };
    for (d, &x) in dst.iter_mut().step_by(stride).zip(src) {
        *d = (x * inv).round().clamp(-127.0, 127.0) as i8;
    }
    max_abs / 127.0
}

impl KvPool {
    /// Allocates zeroed f32 storage for `num_blocks` blocks across
    /// `n_layers` layers with `hidden`-sized K and V vectors per token.
    #[must_use]
    pub fn new(n_layers: usize, num_blocks: usize, block_size: usize, hidden: usize) -> Self {
        Self::with_element(n_layers, num_blocks, block_size, hidden, KvElement::F32)
    }

    /// Allocates zeroed storage with the given element type (the layout the
    /// serving backend's attention kernel reads).
    #[must_use]
    pub fn with_element(
        n_layers: usize,
        num_blocks: usize,
        block_size: usize,
        hidden: usize,
        element: KvElement,
    ) -> Self {
        let layer_len = num_blocks * block_size * hidden;
        let storage = match element {
            KvElement::F32 => KvStorage::F32 {
                k: vec![vec![0.0; layer_len]; n_layers],
                v: vec![vec![0.0; layer_len]; n_layers],
            },
            KvElement::Int8Scaled => KvStorage::Int8 {
                k: vec![vec![0; layer_len]; n_layers],
                v: vec![vec![0; layer_len]; n_layers],
                k_scale: vec![vec![0.0; num_blocks * block_size]; n_layers],
                v_scale: vec![vec![0.0; num_blocks * block_size]; n_layers],
            },
        };
        Self {
            storage,
            n_layers,
            num_blocks,
            block_size,
            hidden,
        }
    }

    /// Element type of the stored K/V scalars.
    #[must_use]
    pub fn element(&self) -> KvElement {
        match &self.storage {
            KvStorage::F32 { .. } => KvElement::F32,
            KvStorage::Int8 { .. } => KvElement::Int8Scaled,
        }
    }

    /// Number of blocks in the pool.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Tokens per block.
    #[must_use]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// K/V vector width.
    #[must_use]
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Total bytes of K+V storage including any per-vector scales
    /// (capacity accounting; consistent with
    /// [`crate::backend::KvLayout::bytes_per_block`]).
    #[must_use]
    pub fn num_bytes(&self) -> usize {
        let slots = self.num_blocks * self.block_size;
        match &self.storage {
            KvStorage::F32 { .. } => {
                2 * self.n_layers * slots * self.hidden * std::mem::size_of::<f32>()
            }
            KvStorage::Int8 { .. } => {
                2 * self.n_layers * slots * (self.hidden + std::mem::size_of::<f32>())
            }
        }
    }

    #[inline]
    fn offset(&self, block: usize, slot: usize) -> usize {
        debug_assert!(block < self.num_blocks, "block {block} out of range");
        debug_assert!(slot < self.block_size, "slot {slot} out of range");
        (block * self.block_size + slot) * self.hidden
    }

    /// Writes the key/value vectors of one token into `(block, slot)` for
    /// `layer` (the "fused reshape and block write" path, §5.1): the value
    /// as one contiguous row, the key scattered down the slot's column of
    /// the dimension-major K tile. On an int8 pool the vectors are
    /// quantized on the way in with one scale each.
    ///
    /// # Panics
    ///
    /// Panics (debug) on out-of-range indices or wrong vector widths.
    pub fn write(&mut self, layer: usize, block: usize, slot: usize, key: &[f32], value: &[f32]) {
        debug_assert_eq!(key.len(), self.hidden);
        debug_assert_eq!(value.len(), self.hidden);
        let (h, bs) = (self.hidden, self.block_size);
        let tile = self.offset(block, 0);
        let row = self.offset(block, slot);
        match &mut self.storage {
            KvStorage::F32 { k, v } => {
                let column = k[layer][tile + slot..tile + bs * h].iter_mut().step_by(bs);
                for (dst, &x) in column.zip(key) {
                    *dst = x;
                }
                v[layer][row..row + h].copy_from_slice(value);
            }
            KvStorage::Int8 {
                k,
                v,
                k_scale,
                v_scale,
            } => {
                let si = block * bs + slot;
                k_scale[layer][si] =
                    quantize_slot(key, &mut k[layer][tile + slot..tile + bs * h], bs);
                v_scale[layer][si] = quantize_slot(value, &mut v[layer][row..row + h], 1);
            }
        }
    }

    /// The key vector stored at `(layer, block, slot)`, dequantized if the
    /// pool is int8 (tests and the oracle path; the kernel reads tiles).
    #[must_use]
    pub fn key(&self, layer: usize, block: usize, slot: usize) -> Vec<f32> {
        let column = (0..self.hidden).map(|d| d * self.block_size + slot);
        match self.key_tile(layer, block) {
            KvTile::F32(k) => column.map(|i| k[i]).collect(),
            KvTile::Int8 { q, scales } => column.map(|i| f32::from(q[i]) * scales[slot]).collect(),
        }
    }

    /// The value vector stored at `(layer, block, slot)`, dequantized if
    /// the pool is int8.
    #[must_use]
    pub fn value(&self, layer: usize, block: usize, slot: usize) -> Vec<f32> {
        let row = slot * self.hidden..(slot + 1) * self.hidden;
        match self.value_tile(layer, block) {
            KvTile::F32(v) => v[row].to_vec(),
            KvTile::Int8 { q, scales } => q[row]
                .iter()
                .map(|&x| f32::from(x) * scales[slot])
                .collect(),
        }
    }

    /// The key tile `(layer, block)` as the attention kernel reads it:
    /// dimension-major, element `d` of slot `s` at `d * block_size + s`.
    #[must_use]
    pub fn key_tile(&self, layer: usize, block: usize) -> KvTile<'_> {
        let o = self.offset(block, 0);
        let len = self.block_size * self.hidden;
        let so = block * self.block_size;
        match &self.storage {
            KvStorage::F32 { k, .. } => KvTile::F32(&k[layer][o..o + len]),
            KvStorage::Int8 { k, k_scale, .. } => KvTile::Int8 {
                q: &k[layer][o..o + len],
                scales: &k_scale[layer][so..so + self.block_size],
            },
        }
    }

    /// The value tile `(layer, block)`: slot-major, element `d` of slot `s`
    /// at `s * hidden + d`.
    #[must_use]
    pub fn value_tile(&self, layer: usize, block: usize) -> KvTile<'_> {
        let o = self.offset(block, 0);
        let len = self.block_size * self.hidden;
        let so = block * self.block_size;
        match &self.storage {
            KvStorage::F32 { v, .. } => KvTile::F32(&v[layer][o..o + len]),
            KvStorage::Int8 { v, v_scale, .. } => KvTile::Int8 {
                q: &v[layer][o..o + len],
                scales: &v_scale[layer][so..so + self.block_size],
            },
        }
    }

    /// Copies a whole block (all layers, K and V, and any scales) within
    /// this pool.
    pub fn copy_block_within(&mut self, src: usize, dst: usize) {
        if src == dst {
            return;
        }
        let len = self.block_size * self.hidden;
        let s = self.offset(src, 0);
        let d = self.offset(dst, 0);
        let ss = src * self.block_size;
        let sd = dst * self.block_size;
        let bs = self.block_size;
        for layer in 0..self.n_layers {
            match &mut self.storage {
                KvStorage::F32 { k, v } => {
                    let (k_src, k_dst) = split_two(&mut k[layer], s, d, len);
                    k_dst.copy_from_slice(k_src);
                    let (v_src, v_dst) = split_two(&mut v[layer], s, d, len);
                    v_dst.copy_from_slice(v_src);
                }
                KvStorage::Int8 {
                    k,
                    v,
                    k_scale,
                    v_scale,
                } => {
                    let (k_src, k_dst) = split_two(&mut k[layer], s, d, len);
                    k_dst.copy_from_slice(k_src);
                    let (v_src, v_dst) = split_two(&mut v[layer], s, d, len);
                    v_dst.copy_from_slice(v_src);
                    let (ks_src, ks_dst) = split_two(&mut k_scale[layer], ss, sd, bs);
                    ks_dst.copy_from_slice(ks_src);
                    let (vs_src, vs_dst) = split_two(&mut v_scale[layer], ss, sd, bs);
                    vs_dst.copy_from_slice(vs_src);
                }
            }
        }
    }

    /// Copies a whole block from `self` into `other` (swap transfer).
    ///
    /// # Panics
    ///
    /// Panics if the pools disagree on layer count, block size, width, or
    /// element type.
    pub fn copy_block_to(&self, src: usize, other: &mut KvPool, dst: usize) {
        assert_eq!(self.n_layers, other.n_layers);
        assert_eq!(self.block_size, other.block_size);
        assert_eq!(self.hidden, other.hidden);
        assert_eq!(self.element(), other.element(), "pool element mismatch");
        let len = self.block_size * self.hidden;
        let s = self.offset(src, 0);
        let d = other.offset(dst, 0);
        let ss = src * self.block_size;
        let sd = dst * self.block_size;
        let bs = self.block_size;
        for layer in 0..self.n_layers {
            match (&self.storage, &mut other.storage) {
                (KvStorage::F32 { k, v }, KvStorage::F32 { k: ok, v: ov }) => {
                    ok[layer][d..d + len].copy_from_slice(&k[layer][s..s + len]);
                    ov[layer][d..d + len].copy_from_slice(&v[layer][s..s + len]);
                }
                (
                    KvStorage::Int8 {
                        k,
                        v,
                        k_scale,
                        v_scale,
                    },
                    KvStorage::Int8 {
                        k: ok,
                        v: ov,
                        k_scale: oks,
                        v_scale: ovs,
                    },
                ) => {
                    ok[layer][d..d + len].copy_from_slice(&k[layer][s..s + len]);
                    ov[layer][d..d + len].copy_from_slice(&v[layer][s..s + len]);
                    oks[layer][sd..sd + bs].copy_from_slice(&k_scale[layer][ss..ss + bs]);
                    ovs[layer][sd..sd + bs].copy_from_slice(&v_scale[layer][ss..ss + bs]);
                }
                _ => unreachable!("element types checked above"),
            }
        }
    }

    /// Resizes the pool to `num_blocks` blocks (elastic memory). Growth
    /// appends zeroed storage; shrinkage truncates — the block manager
    /// guarantees every id at or above the new bound was vacated by the
    /// compaction moves applied before the shrink.
    pub fn resize(&mut self, num_blocks: usize) {
        if num_blocks == self.num_blocks {
            return;
        }
        let layer_len = num_blocks * self.block_size * self.hidden;
        let slots = num_blocks * self.block_size;
        match &mut self.storage {
            KvStorage::F32 { k, v } => {
                for l in k.iter_mut().chain(v.iter_mut()) {
                    l.resize(layer_len, 0.0);
                }
            }
            KvStorage::Int8 {
                k,
                v,
                k_scale,
                v_scale,
            } => {
                for l in k.iter_mut().chain(v.iter_mut()) {
                    l.resize(layer_len, 0);
                }
                for l in k_scale.iter_mut().chain(v_scale.iter_mut()) {
                    l.resize(slots, 0.0);
                }
            }
        }
        self.num_blocks = num_blocks;
    }

    /// Serializes one whole block (all layers, K and V, and any scales)
    /// into a layout-tagged [`KvBlockBytes`] for a KV handoff. Layer-major,
    /// matching [`Self::import_block_bytes`].
    #[must_use]
    pub fn export_block_bytes(&self, block: usize) -> KvBlockBytes {
        let len = self.block_size * self.hidden;
        let o = self.offset(block, 0);
        let so = block * self.block_size;
        let bs = self.block_size;
        match &self.storage {
            KvStorage::F32 { k, v } => {
                let mut ko = Vec::with_capacity(self.n_layers * len);
                let mut vo = Vec::with_capacity(self.n_layers * len);
                for layer in 0..self.n_layers {
                    ko.extend_from_slice(&k[layer][o..o + len]);
                    vo.extend_from_slice(&v[layer][o..o + len]);
                }
                KvBlockBytes::F32 { k: ko, v: vo }
            }
            KvStorage::Int8 {
                k,
                v,
                k_scale,
                v_scale,
            } => {
                let mut ko = Vec::with_capacity(self.n_layers * len);
                let mut vo = Vec::with_capacity(self.n_layers * len);
                let mut ks = Vec::with_capacity(self.n_layers * bs);
                let mut vs = Vec::with_capacity(self.n_layers * bs);
                for layer in 0..self.n_layers {
                    ko.extend_from_slice(&k[layer][o..o + len]);
                    vo.extend_from_slice(&v[layer][o..o + len]);
                    ks.extend_from_slice(&k_scale[layer][so..so + bs]);
                    vs.extend_from_slice(&v_scale[layer][so..so + bs]);
                }
                KvBlockBytes::Int8 {
                    k: ko,
                    v: vo,
                    k_scales: ks,
                    v_scales: vs,
                }
            }
        }
    }

    /// Writes a serialized block produced by [`Self::export_block_bytes`]
    /// into `block`, returning whether it was applied. A payload whose
    /// layout or shape disagrees with this pool — another KV element, a
    /// tensor-parallel shard's narrower (or a full model's wider) hidden
    /// slice, another block size or layer count, or the empty body a
    /// backend without KV storage exports — is left unapplied (`false`);
    /// [`KvCache::apply`] turns that into an error.
    pub fn import_block_bytes(&mut self, block: usize, data: &KvBlockBytes) -> bool {
        let len = self.block_size * self.hidden;
        let total = self.n_layers * len;
        let o = self.offset(block, 0);
        let so = block * self.block_size;
        let bs = self.block_size;
        match (&mut self.storage, data) {
            (KvStorage::F32 { k, v }, KvBlockBytes::F32 { k: ki, v: vi })
                if ki.len() == total && vi.len() == total =>
            {
                for layer in 0..self.n_layers {
                    k[layer][o..o + len].copy_from_slice(&ki[layer * len..(layer + 1) * len]);
                    v[layer][o..o + len].copy_from_slice(&vi[layer * len..(layer + 1) * len]);
                }
                true
            }
            (
                KvStorage::Int8 {
                    k,
                    v,
                    k_scale,
                    v_scale,
                },
                KvBlockBytes::Int8 {
                    k: ki,
                    v: vi,
                    k_scales: ksi,
                    v_scales: vsi,
                },
            ) if ki.len() == total
                && vi.len() == total
                && ksi.len() == self.n_layers * bs
                && vsi.len() == self.n_layers * bs =>
            {
                for layer in 0..self.n_layers {
                    k[layer][o..o + len].copy_from_slice(&ki[layer * len..(layer + 1) * len]);
                    v[layer][o..o + len].copy_from_slice(&vi[layer * len..(layer + 1) * len]);
                    k_scale[layer][so..so + bs].copy_from_slice(&ksi[layer * bs..(layer + 1) * bs]);
                    v_scale[layer][so..so + bs].copy_from_slice(&vsi[layer * bs..(layer + 1) * bs]);
                }
                true
            }
            _ => false,
        }
    }

    /// Gathers the K and V vectors of positions `0..len` addressed through a
    /// block table into contiguous `len × hidden` f32 buffers, dequantizing
    /// as the layout requires. Not on the serving path — the attention
    /// kernel reads tiles in place; this feeds the contiguous oracle in
    /// tests and benches.
    #[must_use]
    pub fn gather(&self, layer: usize, block_table: &[usize], len: usize) -> (Vec<f32>, Vec<f32>) {
        let mut ks = Vec::with_capacity(len * self.hidden);
        let mut vs = Vec::with_capacity(len * self.hidden);
        for t in 0..len {
            let (block, slot) = (block_table[t / self.block_size], t % self.block_size);
            ks.extend(self.key(layer, block, slot));
            vs.extend(self.value(layer, block, slot));
        }
        (ks, vs)
    }
}

/// Splits one buffer into a `(src, dst)` pair of non-overlapping regions.
fn split_two<T>(buf: &mut [T], src: usize, dst: usize, len: usize) -> (&[T], &mut [T]) {
    assert!(src.abs_diff(dst) >= len, "regions must not overlap");
    if src < dst {
        let (a, b) = buf.split_at_mut(dst);
        (&a[src..src + len], &mut b[..len])
    } else {
        let (a, b) = buf.split_at_mut(src);
        (&b[..len], &mut a[dst..dst + len])
    }
}

/// GPU + CPU paged KV storage with the scheduler-driven transfer operations.
#[derive(Debug, Clone)]
pub struct KvCache {
    /// Active (GPU-analog) pool.
    pub gpu: KvPool,
    /// Swap-space (CPU-analog) pool.
    pub cpu: KvPool,
}

impl KvCache {
    /// Creates both pools with f32 storage.
    #[must_use]
    pub fn new(
        n_layers: usize,
        num_gpu_blocks: usize,
        num_cpu_blocks: usize,
        block_size: usize,
        hidden: usize,
    ) -> Self {
        Self::with_element(
            n_layers,
            num_gpu_blocks,
            num_cpu_blocks,
            block_size,
            hidden,
            KvElement::F32,
        )
    }

    /// Creates both pools with the given element type (both sides of a swap
    /// share the layout, so transfers are raw block copies).
    #[must_use]
    pub fn with_element(
        n_layers: usize,
        num_gpu_blocks: usize,
        num_cpu_blocks: usize,
        block_size: usize,
        hidden: usize,
        element: KvElement,
    ) -> Self {
        Self {
            gpu: KvPool::with_element(n_layers, num_gpu_blocks, block_size, hidden, element),
            cpu: KvPool::with_element(n_layers, num_cpu_blocks, block_size, hidden, element),
        }
    }

    /// Applies the scheduler's cache operations for a step, in the
    /// [`CacheOps`] ordering contract: pool growth, defragmentation moves,
    /// pool shrinkage, then swap-out, swap-in, the batched copy-on-write
    /// copies, and finally any KV-handoff installs.
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::Protocol`] naming the first install whose
    /// payload this pool cannot hold (see [`KvPool::import_block_bytes`]).
    /// Every other operation is applied all the same: the block manager has
    /// already committed them.
    pub fn apply(&mut self, ops: &CacheOps) -> Result<()> {
        if let Some(n) = ops.gpu_capacity {
            if n > self.gpu.num_blocks() {
                self.gpu.resize(n);
            }
        }
        if let Some(n) = ops.cpu_capacity {
            if n > self.cpu.num_blocks() {
                self.cpu.resize(n);
            }
        }
        for m in &ops.moves {
            match m.device {
                Device::Gpu => self.gpu.copy_block_within(m.src, m.dst),
                Device::Cpu => self.cpu.copy_block_within(m.src, m.dst),
            }
        }
        if let Some(n) = ops.gpu_capacity {
            if n < self.gpu.num_blocks() {
                self.gpu.resize(n);
            }
        }
        if let Some(n) = ops.cpu_capacity {
            if n < self.cpu.num_blocks() {
                self.cpu.resize(n);
            }
        }
        for c in &ops.swap_out {
            self.gpu.copy_block_to(c.src, &mut self.cpu, c.dst);
        }
        for c in &ops.swap_in {
            self.cpu.copy_block_to(c.src, &mut self.gpu, c.dst);
        }
        // The paper batches all pending copy-on-write copies into one kernel
        // launch ("fused block copy"); here one pass over the list.
        for c in &ops.copies {
            self.gpu.copy_block_within(c.src, c.dst);
        }
        let mut rejected = None;
        for ins in &ops.installs {
            if !self.gpu.import_block_bytes(ins.dst, &ins.data) {
                rejected.get_or_insert(ins.dst);
            }
        }
        match rejected {
            None => Ok(()),
            Some(block) => Err(VllmError::Protocol(format!(
                "KV install into block {block}: the payload does not fit this pool \
                 ({} layers x {} slots x {} wide, {:?})",
                self.gpu.n_layers,
                self.gpu.block_size,
                self.gpu.hidden,
                self.gpu.element()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vllm_core::block_manager::BlockCopy;

    fn filled_pool() -> KvPool {
        let mut p = KvPool::new(2, 4, 2, 3);
        for layer in 0..2 {
            for block in 0..4 {
                for slot in 0..2 {
                    let base = (layer * 100 + block * 10 + slot) as f32;
                    let k: Vec<f32> = (0..3).map(|i| base + i as f32 * 0.1).collect();
                    let v: Vec<f32> = (0..3).map(|i| -(base + i as f32 * 0.1)).collect();
                    p.write(layer, block, slot, &k, &v);
                }
            }
        }
        p
    }

    fn filled_q8_pool() -> KvPool {
        let mut p = KvPool::with_element(2, 4, 2, 3, KvElement::Int8Scaled);
        for layer in 0..2 {
            for block in 0..4 {
                for slot in 0..2 {
                    let base = (layer * 100 + block * 10 + slot) as f32;
                    let k: Vec<f32> = (0..3).map(|i| base + i as f32 * 0.1).collect();
                    let v: Vec<f32> = (0..3).map(|i| -(base + i as f32 * 0.1)).collect();
                    p.write(layer, block, slot, &k, &v);
                }
            }
        }
        p
    }

    #[test]
    fn write_read_round_trip() {
        let p = filled_pool();
        assert_eq!(p.key(1, 2, 1), &[121.0, 121.1, 121.2]);
        assert_eq!(p.value(1, 2, 1), &[-121.0, -121.1, -121.2]);
    }

    #[test]
    fn copy_block_within_copies_all_layers() {
        let mut p = filled_pool();
        p.copy_block_within(2, 0);
        for layer in 0..2 {
            for slot in 0..2 {
                assert_eq!(p.key(layer, 0, slot), p.key(layer, 2, slot));
                assert_eq!(p.value(layer, 0, slot), p.value(layer, 2, slot));
            }
        }
        // Source untouched.
        assert_eq!(p.key(0, 2, 0), &[20.0, 20.1, 20.2]);
    }

    #[test]
    fn copy_block_within_same_block_noop() {
        let mut p = filled_pool();
        let before = p.key(0, 1, 0).to_vec();
        p.copy_block_within(1, 1);
        assert_eq!(p.key(0, 1, 0), &before[..]);
    }

    #[test]
    fn cross_pool_swap_round_trip() {
        let gpu = filled_pool();
        let mut cache = KvCache {
            gpu,
            cpu: KvPool::new(2, 4, 2, 3),
        };
        let original = cache.gpu.key(0, 3, 1).to_vec();
        cache
            .apply(&CacheOps {
                swap_out: vec![BlockCopy { src: 3, dst: 1 }],
                ..Default::default()
            })
            .unwrap();
        assert_eq!(cache.cpu.key(0, 1, 1), &original[..]);
        // Clobber the GPU copy, swap back in to a different block.
        cache.gpu.write(0, 3, 1, &[0.0; 3], &[0.0; 3]);
        cache
            .apply(&CacheOps {
                swap_in: vec![BlockCopy { src: 1, dst: 0 }],
                ..Default::default()
            })
            .unwrap();
        assert_eq!(cache.gpu.key(0, 0, 1), &original[..]);
    }

    #[test]
    fn gather_follows_block_table() {
        let p = filled_pool();
        // Logical order: block 3, then block 1 → positions 0..4.
        let (ks, _vs) = p.gather(0, &[3, 1], 4);
        assert_eq!(&ks[0..3], p.key(0, 3, 0));
        assert_eq!(&ks[3..6], p.key(0, 3, 1));
        assert_eq!(&ks[6..9], p.key(0, 1, 0));
        assert_eq!(&ks[9..12], p.key(0, 1, 1));
    }

    #[test]
    fn gather_partial_last_block() {
        let p = filled_pool();
        let (ks, vs) = p.gather(1, &[0, 2], 3);
        assert_eq!(ks.len(), 9);
        assert_eq!(vs.len(), 9);
        assert_eq!(&ks[6..9], p.key(1, 2, 0));
    }

    #[test]
    fn num_bytes_accounting() {
        let p = KvPool::new(2, 4, 2, 3);
        // 2 (K+V) * 2 layers * 4 blocks * 2 slots * 3 floats * 4 bytes.
        assert_eq!(p.num_bytes(), 2 * 2 * 4 * 2 * 3 * 4);
        let q = KvPool::with_element(2, 4, 2, 3, KvElement::Int8Scaled);
        // Same shape, 1 byte per element plus one 4-byte scale per vector.
        assert_eq!(q.num_bytes(), 2 * 2 * 4 * 2 * (3 + 4));
        assert!(q.num_bytes() < p.num_bytes());
    }

    #[test]
    fn quantized_round_trip_error_bounded_by_half_scale() {
        let mut p = KvPool::with_element(1, 1, 1, 8, KvElement::Int8Scaled);
        let key = [0.9f32, -0.4, 0.05, -1.27, 0.0, 0.33, 1.2, -0.001];
        let value = [2.0f32, -3.0, 0.25, 0.125, -0.5, 1.0, 0.75, -2.5];
        p.write(0, 0, 0, &key, &value);
        let (ks, vs) = p.gather(0, &[0], 1);
        let k_scale = key.iter().fold(0.0f32, |m, &x| m.max(x.abs())) / 127.0;
        let v_scale = value.iter().fold(0.0f32, |m, &x| m.max(x.abs())) / 127.0;
        for (orig, got) in key.iter().zip(&ks) {
            assert!(
                (orig - got).abs() <= k_scale / 2.0 + 1e-7,
                "{orig} vs {got}"
            );
        }
        for (orig, got) in value.iter().zip(&vs) {
            assert!(
                (orig - got).abs() <= v_scale / 2.0 + 1e-7,
                "{orig} vs {got}"
            );
        }
    }

    #[test]
    fn quantized_zero_vector_round_trips_exactly() {
        let mut p = KvPool::with_element(1, 1, 2, 4, KvElement::Int8Scaled);
        p.write(0, 0, 0, &[0.0; 4], &[0.0; 4]);
        let (ks, vs) = p.gather(0, &[0], 1);
        assert_eq!(ks, vec![0.0; 4]);
        assert_eq!(vs, vec![0.0; 4]);
    }

    #[test]
    fn quantized_copy_and_swap_preserve_scales() {
        let p = filled_q8_pool();
        let before = p.key_tile(1, 3);
        assert!(matches!(before, KvTile::Int8 { .. }));
        // In-pool copy.
        let mut p2 = p.clone();
        p2.copy_block_within(3, 0);
        assert_eq!(p2.key_tile(1, 0), before);
        // Cross-pool copy (swap transfer).
        let mut other = KvPool::with_element(2, 4, 2, 3, KvElement::Int8Scaled);
        p.copy_block_to(3, &mut other, 1);
        assert_eq!(other.key_tile(1, 1), before);
    }

    #[test]
    fn export_import_round_trip_f32() {
        let p = filled_pool();
        let bytes = p.export_block_bytes(2);
        let mut q = KvPool::new(2, 4, 2, 3);
        assert!(q.import_block_bytes(1, &bytes));
        for layer in 0..2 {
            for slot in 0..2 {
                assert_eq!(q.key(layer, 1, slot), p.key(layer, 2, slot));
                assert_eq!(q.value(layer, 1, slot), p.value(layer, 2, slot));
            }
        }
    }

    #[test]
    fn export_import_round_trip_q8_preserves_scales() {
        let p = filled_q8_pool();
        let bytes = p.export_block_bytes(3);
        let mut q = KvPool::with_element(2, 4, 2, 3, KvElement::Int8Scaled);
        assert!(q.import_block_bytes(0, &bytes));
        for layer in 0..2 {
            assert_eq!(q.key_tile(layer, 0), p.key_tile(layer, 3));
            assert_eq!(q.value_tile(layer, 0), p.value_tile(layer, 3));
        }
        // Dequantized reads agree too.
        assert_eq!(p.gather(1, &[3], 2), q.gather(1, &[0], 2));
    }

    #[test]
    fn import_rejects_mismatched_payloads() {
        let mut p = filled_pool();
        // An empty payload (storage-less backend) is left unapplied.
        assert!(!p.import_block_bytes(0, &KvBlockBytes::empty()));
        // So is another layout.
        let q8 = filled_q8_pool().export_block_bytes(0);
        assert!(!p.import_block_bytes(0, &q8));
        // And another width (a shard).
        let narrow = KvPool::new(2, 4, 2, 2).export_block_bytes(0);
        assert!(!p.import_block_bytes(0, &narrow));
    }

    #[test]
    fn apply_lands_every_op_but_an_unfit_install() {
        use vllm_core::handoff::KvBlockInstall;
        let src = filled_pool();
        let mut cache = KvCache {
            gpu: filled_pool(),
            cpu: KvPool::new(2, 2, 2, 3),
        };
        let rejected = cache.apply(&CacheOps {
            copies: vec![BlockCopy { src: 2, dst: 3 }],
            installs: vec![
                KvBlockInstall {
                    dst: 0,
                    data: src.export_block_bytes(3),
                },
                KvBlockInstall {
                    dst: 1,
                    data: KvBlockBytes::empty(),
                },
            ],
            ..Default::default()
        });
        let err = rejected.unwrap_err();
        assert!(matches!(err, VllmError::Protocol(_)), "{err:?}");
        assert!(err.to_string().contains("block 1"), "{err}");
        // The copy and the install that fits were applied all the same; the
        // unfit install left its block as it was.
        assert_eq!(cache.gpu.key(0, 3, 1), src.key(0, 2, 1));
        assert_eq!(cache.gpu.key(0, 0, 1), src.key(0, 3, 1));
        assert_eq!(cache.gpu.key(0, 1, 1), src.key(0, 1, 1));
        // A payload cut for another width is as unfit as an empty one.
        let narrow = KvPool::new(2, 4, 2, 2).export_block_bytes(0);
        let install = KvBlockInstall {
            dst: 2,
            data: narrow,
        };
        let ops = CacheOps {
            installs: vec![install],
            ..Default::default()
        };
        assert!(cache.apply(&ops).is_err());
        assert_eq!(cache.gpu.key(0, 2, 1), src.key(0, 2, 1));
    }

    #[test]
    #[should_panic(expected = "element mismatch")]
    fn cross_element_swap_panics() {
        let p = filled_pool();
        let mut other = KvPool::with_element(2, 4, 2, 3, KvElement::Int8Scaled);
        p.copy_block_to(0, &mut other, 0);
    }
}
