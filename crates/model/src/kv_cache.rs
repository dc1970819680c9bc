//! Paged KV cache storage (§4.2, §5.1).
//!
//! A [`KvPool`] holds two planes per layer, one for K and one for V, each a
//! contiguous allocation divided into physical KV blocks ("the block engine
//! allocates a contiguous chunk and divides it into physical KV blocks"),
//! and addresses token slots by `(physical block, offset)`. Every plane is
//! allocated zeroed and never written at construction, so its pages are
//! committed on first write, not when the pool is built. Within a block the
//! two tiles are laid out for the way the attention kernel reads them (the
//! "memory layout optimized for block read" of §5.1): **V slot-major**
//! (`[slot][hidden]`, the weighted sum runs across `hidden`) and **K
//! dimension-major** (`[hidden][slot]`, as in vLLM's own K cache, so the
//! score pass reads the slots of a block as contiguous lanes). The element
//! type of the stored K/V scalars is chosen by the kernel backend's
//! [`KvElement`] layout: plain `f32`, or `i8` with one `f32` dequantization
//! scale per stored vector (`quant-kv8`), which shrinks bytes-per-block and
//! therefore buys more blocks per memory budget. A plane keeps those scales
//! beside its elements (`KvScalar` says how many per slot), so block
//! copies, swaps, resizes and handoff payloads are each one body over the
//! planes, whatever the element, and never look inside a tile. [`KvCache`]
//! pairs a GPU pool with a CPU pool (swap space) and applies the scheduler's
//! cache operations: batched copy-on-write copies ("fused block copy", §5.1)
//! and swap transfers (§4.5).

use std::cmp::Ordering;
use std::ops::Range;

use vllm_core::block::Device;
use vllm_core::error::{Result, VllmError};
use vllm_core::executor::CacheOps;
use vllm_core::handoff::KvBlockBytes;

use crate::backend::KvElement;

/// How one K/V vector is stored in a plane: the element type, the scales a
/// slot keeps beside its elements, and the element's variant of the kernel's
/// [`KvTile`] and of the handoff's [`KvBlockBytes`].
pub(crate) trait KvScalar: Copy + Default {
    /// `f32` scales stored per slot: 0 for a plain element, 1 for a
    /// quantized one.
    const SCALES: usize;

    /// Stores one vector, element `i` landing at `dst[i * stride]`, and its
    /// [`Self::SCALES`] scales into `scales`.
    fn store(src: &[f32], dst: &mut [Self], stride: usize, scales: &mut [f32]);

    /// The kernel's view of one tile and its per-slot scales.
    fn tile<'a>(q: &'a [Self], scales: &'a [f32]) -> KvTile<'a>;

    /// A handoff block from its layer-major K and V elements and scales.
    fn to_bytes(k: (Vec<Self>, Vec<f32>), v: (Vec<Self>, Vec<f32>)) -> KvBlockBytes;

    /// The K and V elements and scales of a handoff block of this element,
    /// or `None` for another element's block.
    fn from_bytes(data: &KvBlockBytes) -> Option<[(&[Self], &[f32]); 2]>;
}

impl KvScalar for f32 {
    const SCALES: usize = 0;

    fn store(src: &[f32], dst: &mut [f32], stride: usize, _: &mut [f32]) {
        if stride == 1 {
            dst[..src.len()].copy_from_slice(src);
        } else {
            for (d, &x) in dst.iter_mut().step_by(stride).zip(src) {
                *d = x;
            }
        }
    }

    fn tile<'a>(q: &'a [f32], _: &'a [f32]) -> KvTile<'a> {
        KvTile::F32(q)
    }

    fn to_bytes((k, _): (Vec<f32>, Vec<f32>), (v, _): (Vec<f32>, Vec<f32>)) -> KvBlockBytes {
        KvBlockBytes::F32 { k, v }
    }

    fn from_bytes(data: &KvBlockBytes) -> Option<[(&[f32], &[f32]); 2]> {
        match data {
            KvBlockBytes::F32 { k, v } => Some([(k, &[]), (v, &[])]),
            KvBlockBytes::Int8 { .. } => None,
        }
    }
}

impl KvScalar for i8 {
    const SCALES: usize = 1;

    /// Quantizes: `scale = max|x| / 127`, elements `round(x / scale)`. The
    /// scale is 0 for an all-zero vector, whose dequantization is exactly
    /// zero. Reconstruction error per element is at most `scale / 2`.
    fn store(src: &[f32], dst: &mut [i8], stride: usize, scales: &mut [f32]) {
        let max_abs = src.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let inv = if max_abs == 0.0 { 0.0 } else { 127.0 / max_abs };
        for (d, &x) in dst.iter_mut().step_by(stride).zip(src) {
            *d = (x * inv).round().clamp(-127.0, 127.0) as i8;
        }
        scales[0] = max_abs / 127.0;
    }

    fn tile<'a>(q: &'a [i8], scales: &'a [f32]) -> KvTile<'a> {
        KvTile::Int8 { q, scales }
    }

    fn to_bytes(
        (k, k_scales): (Vec<i8>, Vec<f32>),
        (v, v_scales): (Vec<i8>, Vec<f32>),
    ) -> KvBlockBytes {
        KvBlockBytes::Int8 {
            k,
            v,
            k_scales,
            v_scales,
        }
    }

    fn from_bytes(data: &KvBlockBytes) -> Option<[(&[i8], &[f32]); 2]> {
        match data {
            KvBlockBytes::Int8 {
                k,
                v,
                k_scales,
                v_scales,
            } => Some([(k, k_scales), (v, v_scales)]),
            KvBlockBytes::F32 { .. } => None,
        }
    }
}

/// Bytes one token occupies in one layer when stored as `E`: its K and V
/// vectors plus their scales.
#[must_use]
pub(crate) const fn token_bytes<E: KvScalar>(hidden: usize) -> usize {
    2 * (hidden * size_of::<E>() + E::SCALES * size_of::<f32>())
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

/// Where a pool's blocks sit in its planes: `block_size × hidden` elements
/// and `block_size × SCALES` scales per block, K planes of layers
/// `0..n_layers` first, then the V planes.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Geometry {
    n_layers: usize,
    block_size: usize,
    hidden: usize,
}

impl Geometry {
    fn tile(self, block: usize) -> Range<usize> {
        let n = self.block_size * self.hidden;
        block * n..(block + 1) * n
    }

    fn scales<E: KvScalar>(self, block: usize) -> Range<usize> {
        let n = self.block_size * E::SCALES;
        block * n..(block + 1) * n
    }
}

/// One layer's K or V: every block's tile, then every slot's scales.
#[derive(Debug, Clone)]
struct Plane<E> {
    data: Vec<E>,
    scales: Vec<f32>,
}

impl<E: KvScalar> Plane<E> {
    /// The planes of a pool, each its own zeroed allocation: nothing writes
    /// them here, so their pages are committed on first write.
    fn zeroed(g: Geometry, num_blocks: usize) -> Vec<Self> {
        let plane = || Self {
            data: vec![E::default(); g.tile(num_blocks).start],
            scales: vec![0.0; g.scales::<E>(num_blocks).start],
        };
        (0..2 * g.n_layers).map(|_| plane()).collect()
    }

    fn block(&self, g: Geometry, block: usize) -> (&[E], &[f32]) {
        let (data, scales) = (g.tile(block), g.scales::<E>(block));
        (&self.data[data], &self.scales[scales])
    }

    fn block_mut(&mut self, g: Geometry, block: usize) -> (&mut [E], &mut [f32]) {
        let (data, scales) = (g.tile(block), g.scales::<E>(block));
        (&mut self.data[data], &mut self.scales[scales])
    }

    /// Overwrites `block` with another plane's block (elements and scales).
    fn put(&mut self, g: Geometry, block: usize, (data, scales): (&[E], &[f32])) {
        let (to_data, to_scales) = self.block_mut(g, block);
        to_data.copy_from_slice(data);
        to_scales.copy_from_slice(scales);
    }

    fn tile(&self, g: Geometry, block: usize) -> KvTile<'_> {
        let (q, scales) = self.block(g, block);
        E::tile(q, scales)
    }

    /// Stores `slot`'s vector `x` into `block`, element `i` at tile offset
    /// `start + i * stride` for `at = (start, stride)`.
    fn store(&mut self, g: Geometry, block: usize, slot: usize, x: &[f32], at: (usize, usize)) {
        let (data, scales) = self.block_mut(g, block);
        let slot_scales = &mut scales[slot * E::SCALES..][..E::SCALES];
        E::store(x, &mut data[at.0..], at.1, slot_scales);
    }

    fn copy_within(&mut self, g: Geometry, src: usize, dst: usize) {
        self.data.copy_within(g.tile(src), g.tile(dst).start);
        let scales = g.scales::<E>(src);
        self.scales.copy_within(scales, g.scales::<E>(dst).start);
    }

    fn resize(&mut self, g: Geometry, num_blocks: usize) {
        self.data.resize(g.tile(num_blocks).start, E::default());
        self.scales.resize(g.scales::<E>(num_blocks).start, 0.0);
    }

    fn num_bytes(&self) -> usize {
        self.data.len() * size_of::<E>() + self.scales.len() * size_of::<f32>()
    }

    /// Copies block `src` of every plane in `from` into block `dst` of the
    /// matching plane in `to`.
    fn copy(g: Geometry, from: &[Self], src: usize, to: &mut [Self], dst: usize) {
        for (from, to) in from.iter().zip(to) {
            to.put(g, dst, from.block(g, src));
        }
    }

    /// Block `block` of every plane, K then V, each layer-major.
    fn export(g: Geometry, planes: &[Self], block: usize) -> KvBlockBytes {
        let gather = |planes: &[Self]| {
            let mut data = Vec::with_capacity(g.n_layers * g.tile(1).start);
            let mut scales = Vec::with_capacity(g.n_layers * g.scales::<E>(1).start);
            for (d, s) in planes.iter().map(|p| p.block(g, block)) {
                data.extend_from_slice(d);
                scales.extend_from_slice(s);
            }
            (data, scales)
        };
        let (k, v) = planes.split_at(g.n_layers);
        E::to_bytes(gather(k), gather(v))
    }

    /// Writes an exported block into block `block` of every plane, if it
    /// has this element and this pool's shape.
    fn import(g: Geometry, planes: &mut [Self], block: usize, data: &KvBlockBytes) -> bool {
        let (tile, scale) = (g.tile(1).start, g.scales::<E>(1).start);
        let Some(parts) = E::from_bytes(data) else {
            return false;
        };
        let fits =
            |(d, s): &(&[E], &[f32])| d.len() == g.n_layers * tile && s.len() == g.n_layers * scale;
        if !parts.iter().all(fits) {
            return false;
        }
        for (i, p) in planes.iter_mut().enumerate() {
            let ((d, s), layer) = (parts[i / g.n_layers], i % g.n_layers);
            let part = (&d[layer * tile..][..tile], &s[layer * scale..][..scale]);
            p.put(g, block, part);
        }
        true
    }
}

/// A pool's planes, of whichever element its backend reads.
#[derive(Debug, Clone)]
enum KvStorage {
    F32(Vec<Plane<f32>>),
    Int8(Vec<Plane<i8>>),
}

/// Runs `$body` with `$planes` bound to the storage's planes, whatever
/// their element: each block operation is written once, generic over it.
macro_rules! with_planes {
    ($storage:expr, $planes:ident => $body:expr) => {
        match $storage {
            KvStorage::F32($planes) => $body,
            KvStorage::Int8($planes) => $body,
        }
    };
}

/// Per-layer paged key/value storage for one device.
#[derive(Debug, Clone)]
pub struct KvPool {
    storage: KvStorage,
    geometry: Geometry,
    num_blocks: usize,
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
        let g = Geometry {
            n_layers,
            block_size,
            hidden,
        };
        let storage = match element {
            KvElement::F32 => KvStorage::F32(Plane::zeroed(g, num_blocks)),
            KvElement::Int8Scaled => KvStorage::Int8(Plane::zeroed(g, num_blocks)),
        };
        Self {
            storage,
            geometry: g,
            num_blocks,
        }
    }

    /// Element type of the stored K/V scalars.
    #[must_use]
    pub fn element(&self) -> KvElement {
        match &self.storage {
            KvStorage::F32(_) => KvElement::F32,
            KvStorage::Int8(_) => KvElement::Int8Scaled,
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
        self.geometry.block_size
    }

    /// K/V vector width.
    #[must_use]
    pub fn hidden(&self) -> usize {
        self.geometry.hidden
    }

    /// Total bytes of K+V storage including any per-vector scales
    /// (capacity accounting; consistent with
    /// [`crate::backend::KvLayout::bytes_per_block`]).
    #[must_use]
    pub fn num_bytes(&self) -> usize {
        with_planes!(&self.storage, p => p.iter().map(Plane::num_bytes).sum())
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
        let g = self.geometry;
        debug_assert!(block < self.num_blocks, "block {block} out of range");
        debug_assert!(slot < g.block_size, "slot {slot} out of range");
        debug_assert_eq!(key.len(), g.hidden);
        debug_assert_eq!(value.len(), g.hidden);
        with_planes!(&mut self.storage, p => {
            p[layer].store(g, block, slot, key, (slot, g.block_size));
            p[g.n_layers + layer].store(g, block, slot, value, (slot * g.hidden, 1));
        });
    }

    /// The key vector stored at `(layer, block, slot)`, dequantized if the
    /// pool is int8 (tests and the oracle path; the kernel reads tiles).
    #[must_use]
    pub fn key(&self, layer: usize, block: usize, slot: usize) -> Vec<f32> {
        let column = (0..self.hidden()).map(|d| d * self.block_size() + slot);
        match self.key_tile(layer, block) {
            KvTile::F32(k) => column.map(|i| k[i]).collect(),
            KvTile::Int8 { q, scales } => column.map(|i| f32::from(q[i]) * scales[slot]).collect(),
        }
    }

    /// The value vector stored at `(layer, block, slot)`, dequantized if
    /// the pool is int8.
    #[must_use]
    pub fn value(&self, layer: usize, block: usize, slot: usize) -> Vec<f32> {
        let row = slot * self.hidden()..(slot + 1) * self.hidden();
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
        with_planes!(&self.storage, p => p[layer].tile(self.geometry, block))
    }

    /// The value tile `(layer, block)`: slot-major, element `d` of slot `s`
    /// at `s * hidden + d`.
    #[must_use]
    pub fn value_tile(&self, layer: usize, block: usize) -> KvTile<'_> {
        let g = self.geometry;
        with_planes!(&self.storage, p => p[g.n_layers + layer].tile(g, block))
    }

    /// Copies a whole block (all layers, K and V, and any scales) within
    /// this pool.
    pub fn copy_block_within(&mut self, src: usize, dst: usize) {
        let g = self.geometry;
        with_planes!(&mut self.storage, p => p.iter_mut().for_each(|p| p.copy_within(g, src, dst)));
    }

    /// Copies a whole block from `self` into `other` (swap transfer).
    ///
    /// # Panics
    ///
    /// Panics if the pools disagree on layer count, block size, width, or
    /// element type.
    pub fn copy_block_to(&self, src: usize, other: &mut KvPool, dst: usize) {
        let g = self.geometry;
        assert_eq!(g, other.geometry, "pool shape mismatch");
        match (&self.storage, &mut other.storage) {
            (KvStorage::F32(from), KvStorage::F32(to)) => Plane::copy(g, from, src, to, dst),
            (KvStorage::Int8(from), KvStorage::Int8(to)) => Plane::copy(g, from, src, to, dst),
            _ => panic!("pool element mismatch"),
        }
    }

    /// Resizes the pool to `num_blocks` blocks (elastic memory). Growth
    /// appends zeroed storage; shrinkage truncates — the block manager
    /// guarantees every id at or above the new bound was vacated by the
    /// compaction moves applied before the shrink.
    pub fn resize(&mut self, num_blocks: usize) {
        let g = self.geometry;
        with_planes!(&mut self.storage, p => p.iter_mut().for_each(|p| p.resize(g, num_blocks)));
        self.num_blocks = num_blocks;
    }

    /// Serializes one whole block (all layers, K and V, and any scales)
    /// into a layout-tagged [`KvBlockBytes`] for a KV handoff. Layer-major,
    /// matching [`Self::import_block_bytes`].
    #[must_use]
    pub fn export_block_bytes(&self, block: usize) -> KvBlockBytes {
        with_planes!(&self.storage, p => Plane::export(self.geometry, p, block))
    }

    /// Writes a serialized block produced by [`Self::export_block_bytes`]
    /// into `block`, returning whether it was applied. A payload whose
    /// layout or shape disagrees with this pool — another KV element, a
    /// tensor-parallel shard's narrower (or a full model's wider) hidden
    /// slice, another block size or layer count, or the empty body a
    /// backend without KV storage exports — is left unapplied (`false`);
    /// [`KvCache::apply`] turns that into an error.
    pub fn import_block_bytes(&mut self, block: usize, data: &KvBlockBytes) -> bool {
        let g = self.geometry;
        with_planes!(&mut self.storage, p => Plane::import(g, p, block, data))
    }

    /// Gathers the K and V vectors of positions `0..len` addressed through a
    /// block table into contiguous `len × hidden` f32 buffers, dequantizing
    /// as the layout requires. Not on the serving path — the attention
    /// kernel reads tiles in place; this feeds the contiguous oracle in
    /// tests and benches.
    #[must_use]
    pub fn gather(&self, layer: usize, block_table: &[usize], len: usize) -> (Vec<f32>, Vec<f32>) {
        let (bs, hidden) = (self.block_size(), self.hidden());
        let mut ks = Vec::with_capacity(len * hidden);
        let mut vs = Vec::with_capacity(len * hidden);
        for t in 0..len {
            let (block, slot) = (block_table[t / bs], t % bs);
            ks.extend(self.key(layer, block, slot));
            vs.extend(self.value(layer, block, slot));
        }
        (ks, vs)
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

    /// Resizes each pool whose capacity in `ops` compares with its current
    /// one as `way`: growth lands before the moves, shrinkage after them.
    fn resize_if(&mut self, ops: &CacheOps, way: Ordering) {
        for (pool, n) in [
            (&mut self.gpu, ops.gpu_capacity),
            (&mut self.cpu, ops.cpu_capacity),
        ] {
            if let Some(n) = n.filter(|&n| n.cmp(&pool.num_blocks()) == way) {
                pool.resize(n);
            }
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
        self.resize_if(ops, Ordering::Greater);
        for m in &ops.moves {
            match m.device {
                Device::Gpu => self.gpu.copy_block_within(m.src, m.dst),
                Device::Cpu => self.cpu.copy_block_within(m.src, m.dst),
            }
        }
        self.resize_if(ops, Ordering::Less);
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
                self.gpu.geometry.n_layers,
                self.gpu.block_size(),
                self.gpu.hidden(),
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
