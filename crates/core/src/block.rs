//! Physical KV blocks and the reference-counted block allocator (§4.2, §4.4).

use serde::{Deserialize, Serialize};

use crate::error::{Result, VllmError};

/// Index of a physical KV block within a device pool.
pub type PhysicalBlockId = usize;

/// Which pool a physical block belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Device {
    /// GPU high-bandwidth memory (active sequences).
    Gpu,
    /// CPU RAM swap space (§4.5).
    Cpu,
}

/// A block-table entry: a physical block plus residency information.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhysicalBlock {
    /// Index within the device pool.
    pub id: PhysicalBlockId,
    /// Pool the block currently resides in.
    pub device: Device,
}

impl PhysicalBlock {
    /// Creates a GPU-resident block reference.
    #[must_use]
    pub fn gpu(id: PhysicalBlockId) -> Self {
        Self {
            id,
            device: Device::Gpu,
        }
    }

    /// Creates a CPU-resident block reference.
    #[must_use]
    pub fn cpu(id: PhysicalBlockId) -> Self {
        Self {
            id,
            device: Device::Cpu,
        }
    }
}

/// "No block" in the cached-free list's links.
const NIL: PhysicalBlockId = usize::MAX;

/// Reference-counted free-list allocator over a fixed pool of KV blocks.
///
/// Every block has the same size, so there is no external fragmentation by
/// construction (§4.1). Reference counts implement block sharing for
/// parallel sampling, beam search, and shared prefixes; copy-on-write
/// triggers when a sequence writes to a block with `ref_count > 1` (§4.4).
///
/// A block may carry the content hash its data is indexed under (see
/// `BlockSpaceManager`). It keeps that hash at reference count 0 — the block
/// is free *and* a cache entry — until [`Self::allocate`] hands it out
/// again. Blocks without a hash are issued first (most recently freed
/// first), then hashed ones, oldest-freed first: free-list order is the
/// cache's whole eviction policy.
#[derive(Debug, Clone)]
pub struct BlockAllocator {
    device: Device,
    num_blocks: usize,
    /// LIFO stack of the free blocks that hold no hash.
    free_list: Vec<PhysicalBlockId>,
    ref_counts: Vec<u32>,
    /// The content hash each block's data is indexed under, if any.
    hashes: Vec<Option<u64>>,
    /// `[prev, next]` links of the free blocks that hold a hash, a doubly
    /// linked list from `cached_head` (oldest freed) to `cached_tail`, so
    /// that [`Self::acquire`] unlinks from the middle in O(1).
    links: Vec<[PhysicalBlockId; 2]>,
    cached_head: PhysicalBlockId,
    cached_tail: PhysicalBlockId,
    num_cached_free: usize,
}

impl BlockAllocator {
    /// Creates an allocator managing `num_blocks` blocks on `device`.
    #[must_use]
    pub fn new(device: Device, num_blocks: usize) -> Self {
        Self {
            device,
            num_blocks,
            // Reverse order so block 0 is handed out first (LIFO pop).
            free_list: (0..num_blocks).rev().collect(),
            ref_counts: vec![0; num_blocks],
            hashes: vec![None; num_blocks],
            links: vec![[NIL; 2]; num_blocks],
            cached_head: NIL,
            cached_tail: NIL,
            num_cached_free: 0,
        }
    }

    /// Device this allocator manages.
    #[must_use]
    pub fn device(&self) -> Device {
        self.device
    }

    /// Total number of blocks in the pool.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Number of currently free blocks, hashed ones included.
    #[must_use]
    pub fn num_free(&self) -> usize {
        self.free_list.len() + self.num_cached_free
    }

    /// Number of free blocks still holding a hash (cached and evictable).
    #[must_use]
    pub fn num_cached_free(&self) -> usize {
        self.num_cached_free
    }

    /// Number of currently allocated blocks.
    #[must_use]
    pub fn num_allocated(&self) -> usize {
        self.num_blocks - self.num_free()
    }

    /// Allocates a block with an initial reference count of 1. When the
    /// block still held a hash, that hash is returned with it: the cache
    /// entry it backed is evicted.
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::OutOfGpuBlocks`] / [`VllmError::OutOfCpuBlocks`]
    /// when the pool is exhausted.
    pub fn allocate(&mut self) -> Result<(PhysicalBlockId, Option<u64>)> {
        let id = match self.free_list.pop() {
            Some(id) => id,
            None if self.cached_head != NIL => {
                let id = self.cached_head;
                self.unlink(id);
                id
            }
            None => {
                return Err(match self.device {
                    Device::Gpu => VllmError::OutOfGpuBlocks,
                    Device::Cpu => VllmError::OutOfCpuBlocks,
                })
            }
        };
        debug_assert_eq!(self.ref_counts[id], 0);
        self.ref_counts[id] = 1;
        Ok((id, self.hashes[id].take()))
    }

    /// Increments the reference count of an allocated block (sharing).
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::InvalidBlock`] for out-of-range ids and
    /// [`VllmError::DoubleFree`] if the block is not currently allocated.
    pub fn incr_ref(&mut self, id: PhysicalBlockId) -> Result<()> {
        self.check(id)?;
        if self.ref_counts[id] == 0 {
            return Err(VllmError::DoubleFree(id));
        }
        self.ref_counts[id] += 1;
        Ok(())
    }

    /// Takes a reference on a block found through its hash: a live block
    /// gains a sharer, a free one is revived from the cached-free list with
    /// its data and hash intact.
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::InvalidBlock`] for out-of-range ids or a block
    /// that holds no hash.
    pub fn acquire(&mut self, id: PhysicalBlockId) -> Result<()> {
        self.check(id)?;
        if self.hashes[id].is_none() {
            return Err(VllmError::InvalidBlock(id));
        }
        if self.ref_counts[id] == 0 {
            self.unlink(id);
        }
        self.ref_counts[id] += 1;
        Ok(())
    }

    /// Decrements the reference count, returning the block to the free
    /// blocks when it reaches zero — behind every other hashed free block
    /// if it holds a hash. Returns the new reference count.
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::InvalidBlock`] for out-of-range ids and
    /// [`VllmError::DoubleFree`] if the block is already free.
    pub fn free(&mut self, id: PhysicalBlockId) -> Result<u32> {
        self.check(id)?;
        if self.ref_counts[id] == 0 {
            return Err(VllmError::DoubleFree(id));
        }
        self.ref_counts[id] -= 1;
        if self.ref_counts[id] == 0 {
            if self.hashes[id].is_some() {
                self.links[id] = [self.cached_tail, NIL];
                match self.cached_tail {
                    NIL => self.cached_head = id,
                    tail => self.links[tail][1] = id,
                }
                self.cached_tail = id;
                self.num_cached_free += 1;
            } else {
                self.free_list.push(id);
            }
        }
        Ok(self.ref_counts[id])
    }

    /// Takes `id` out of the cached-free list.
    fn unlink(&mut self, id: PhysicalBlockId) {
        let [prev, next] = std::mem::replace(&mut self.links[id], [NIL; 2]);
        match prev {
            NIL => self.cached_head = next,
            p => self.links[p][1] = next,
        }
        match next {
            NIL => self.cached_tail = prev,
            n => self.links[n][0] = prev,
        }
        self.num_cached_free -= 1;
    }

    /// Current reference count of a block.
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::InvalidBlock`] for out-of-range ids.
    pub fn ref_count(&self, id: PhysicalBlockId) -> Result<u32> {
        self.check(id)?;
        Ok(self.ref_counts[id])
    }

    /// The hash `id`'s data is indexed under, if any.
    #[must_use]
    pub fn hash(&self, id: PhysicalBlockId) -> Option<u64> {
        self.hashes.get(id).copied().flatten()
    }

    /// Records the hash a live block's data is indexed under.
    ///
    /// # Panics
    ///
    /// Panics if the block is free: only a block someone holds can have
    /// been filled.
    pub fn set_hash(&mut self, id: PhysicalBlockId, hash: u64) {
        assert!(self.ref_counts[id] > 0, "hashing free block {id}");
        self.hashes[id] = Some(hash);
    }

    /// Drops and returns `id`'s hash; a free block moves to the front of
    /// the unhashed free blocks.
    pub fn clear_hash(&mut self, id: PhysicalBlockId) -> Option<u64> {
        let hash = self.hashes[id].take();
        if hash.is_some() && self.ref_counts[id] == 0 {
            self.unlink(id);
            self.free_list.push(id);
        }
        hash
    }

    /// Sum of all reference counts (number of block-table entries pointing
    /// into this pool); used by sharing metrics (Fig. 15).
    #[must_use]
    pub fn total_refs(&self) -> u64 {
        self.ref_counts.iter().map(|&c| u64::from(c)).sum()
    }

    /// Grows the pool to `new_total` blocks (elastic inflate). New ids are
    /// appended above the current bound and handed out lowest-first, after
    /// any already-free unhashed blocks.
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::InvalidConfig`] if `new_total` is smaller than
    /// the current pool.
    pub fn grow(&mut self, new_total: usize) -> Result<()> {
        if new_total < self.num_blocks {
            return Err(VllmError::InvalidConfig(format!(
                "grow to {new_total} blocks below current {}",
                self.num_blocks
            )));
        }
        // Reverse order so the lowest new id pops first once the existing
        // free list drains.
        let fresh: Vec<PhysicalBlockId> = (self.num_blocks..new_total).rev().collect();
        self.free_list.splice(0..0, fresh);
        self.ref_counts.resize(new_total, 0);
        self.hashes.resize(new_total, None);
        self.links.resize(new_total, [NIL; 2]);
        self.num_blocks = new_total;
        Ok(())
    }

    /// Shrinks the pool to `new_total` blocks (elastic deflate). Every id at
    /// or above the new bound must be free — compact first. Returns the
    /// hashes the removed blocks held.
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::InvalidConfig`] if a live block sits above the
    /// new bound.
    pub fn shrink(&mut self, new_total: usize) -> Result<Vec<u64>> {
        if let Some(id) = (new_total..self.num_blocks).find(|&id| self.ref_counts[id] > 0) {
            return Err(VllmError::InvalidConfig(format!(
                "cannot shrink to {new_total} blocks: block {id} is live"
            )));
        }
        let dropped = (new_total..self.num_blocks)
            .filter_map(|id| self.clear_hash(id))
            .collect();
        self.free_list.retain(|&id| id < new_total);
        self.ref_counts.truncate(new_total);
        self.hashes.truncate(new_total);
        self.links.truncate(new_total);
        self.num_blocks = new_total;
        Ok(dropped)
    }

    /// Live block ids at or above `bound`, ascending (the compactor's
    /// migration work list).
    #[must_use]
    pub fn live_at_or_above(&self, bound: usize) -> Vec<PhysicalBlockId> {
        (bound.min(self.num_blocks)..self.num_blocks)
            .filter(|&id| self.ref_counts[id] > 0)
            .collect()
    }

    /// Lowest free block id strictly below `bound`, if any (the compactor's
    /// migration target).
    #[must_use]
    pub fn lowest_free_below(&self, bound: usize) -> Option<PhysicalBlockId> {
        (0..bound.min(self.num_blocks)).find(|&id| self.ref_counts[id] == 0)
    }

    /// Highest live block id, if any block is allocated.
    #[must_use]
    pub fn highest_live(&self) -> Option<PhysicalBlockId> {
        (0..self.num_blocks)
            .rev()
            .find(|&id| self.ref_counts[id] > 0)
    }

    /// Moves a live block's identity from `src` to the free block `dst`:
    /// `dst` takes over `src`'s whole reference count and its hash, and
    /// `src` becomes free and unhashed. Returns the hash `dst` held before
    /// (its data is about to be overwritten). The data move is the caller's
    /// to journal.
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::InvalidBlock`] for out-of-range ids and
    /// [`VllmError::DoubleFree`] if `src` is free or `dst` is live.
    pub fn relocate(&mut self, src: PhysicalBlockId, dst: PhysicalBlockId) -> Result<Option<u64>> {
        self.check(src)?;
        self.check(dst)?;
        if self.ref_counts[src] == 0 {
            return Err(VllmError::DoubleFree(src));
        }
        if self.ref_counts[dst] != 0 {
            return Err(VllmError::InvalidBlock(dst));
        }
        let evicted = self.clear_hash(dst);
        self.free_list.retain(|&id| id != dst);
        self.ref_counts[dst] = self.ref_counts[src];
        self.ref_counts[src] = 0;
        self.hashes[dst] = self.hashes[src].take();
        self.free_list.push(src);
        Ok(evicted)
    }

    /// Verifies the free-block bookkeeping: the unhashed stack and the
    /// cached-free list together hold exactly the blocks at reference count
    /// 0, each on the side its hash puts it. Intended for tests.
    ///
    /// # Panics
    ///
    /// Panics if the bookkeeping is inconsistent.
    pub fn assert_consistent(&self) {
        let name = self.device;
        for &id in &self.free_list {
            assert_eq!(self.ref_counts[id], 0, "{name:?} block {id} free and live");
            assert!(
                self.hashes[id].is_none(),
                "{name:?} block {id} hashed on the plain list"
            );
        }
        let (mut id, mut prev, mut walked) = (self.cached_head, NIL, 0);
        while id != NIL {
            assert_eq!(
                self.ref_counts[id], 0,
                "{name:?} block {id} cached and live"
            );
            assert!(
                self.hashes[id].is_some(),
                "{name:?} block {id} unhashed on the cached list"
            );
            assert_eq!(self.links[id][0], prev, "{name:?} block {id} back link");
            (prev, id, walked) = (id, self.links[id][1], walked + 1);
        }
        assert_eq!(prev, self.cached_tail, "{name:?} cached tail");
        assert_eq!(walked, self.num_cached_free, "{name:?} cached length");
        let free = self.ref_counts.iter().filter(|&&c| c == 0).count();
        assert_eq!(self.num_free(), free, "{name:?} free blocks off a list");
    }

    fn check(&self, id: PhysicalBlockId) -> Result<()> {
        if id >= self.num_blocks {
            return Err(VllmError::InvalidBlock(id));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_until_exhausted() {
        let mut a = BlockAllocator::new(Device::Gpu, 3);
        assert_eq!(a.allocate().unwrap().0, 0);
        assert_eq!(a.allocate().unwrap().0, 1);
        assert_eq!(a.allocate().unwrap().0, 2);
        assert_eq!(a.allocate(), Err(VllmError::OutOfGpuBlocks));
        assert_eq!(a.num_free(), 0);
        assert_eq!(a.num_allocated(), 3);
    }

    #[test]
    fn cpu_pool_reports_cpu_exhaustion() {
        let mut a = BlockAllocator::new(Device::Cpu, 1);
        a.allocate().unwrap();
        assert_eq!(a.allocate(), Err(VllmError::OutOfCpuBlocks));
    }

    #[test]
    fn free_returns_block_to_pool() {
        let mut a = BlockAllocator::new(Device::Gpu, 2);
        let b = a.allocate().unwrap().0;
        assert_eq!(a.free(b).unwrap(), 0);
        assert_eq!(a.num_free(), 2);
        // LIFO: the freed block is reused first.
        assert_eq!(a.allocate().unwrap().0, b);
    }

    #[test]
    fn sharing_via_ref_counts() {
        let mut a = BlockAllocator::new(Device::Gpu, 2);
        let b = a.allocate().unwrap().0;
        a.incr_ref(b).unwrap();
        assert_eq!(a.ref_count(b).unwrap(), 2);
        assert_eq!(a.free(b).unwrap(), 1);
        // Still allocated: one sharer remains.
        assert_eq!(a.num_allocated(), 1);
        assert_eq!(a.free(b).unwrap(), 0);
        assert_eq!(a.num_allocated(), 0);
    }

    #[test]
    fn double_free_detected() {
        let mut a = BlockAllocator::new(Device::Gpu, 1);
        let b = a.allocate().unwrap().0;
        a.free(b).unwrap();
        assert_eq!(a.free(b), Err(VllmError::DoubleFree(b)));
    }

    #[test]
    fn incr_ref_on_free_block_rejected() {
        let mut a = BlockAllocator::new(Device::Gpu, 1);
        assert_eq!(a.incr_ref(0), Err(VllmError::DoubleFree(0)));
    }

    #[test]
    fn invalid_ids_rejected() {
        let mut a = BlockAllocator::new(Device::Gpu, 1);
        assert_eq!(a.free(5), Err(VllmError::InvalidBlock(5)));
        assert_eq!(a.incr_ref(5), Err(VllmError::InvalidBlock(5)));
        assert!(a.ref_count(5).is_err());
    }

    #[test]
    fn grow_appends_low_ids_first_among_new_blocks() {
        let mut a = BlockAllocator::new(Device::Gpu, 2);
        let b0 = a.allocate().unwrap().0;
        let b1 = a.allocate().unwrap().0;
        a.grow(4).unwrap();
        assert_eq!(a.num_blocks(), 4);
        assert_eq!(a.num_free(), 2);
        // Fresh ids hand out lowest-first.
        assert_eq!(a.allocate().unwrap().0, 2);
        assert_eq!(a.allocate().unwrap().0, 3);
        assert!(a.grow(3).is_err(), "grow cannot shrink");
        for b in [b0, b1, 2, 3] {
            a.free(b).unwrap();
        }
    }

    #[test]
    fn shrink_requires_vacated_tail() {
        let mut a = BlockAllocator::new(Device::Gpu, 4);
        let b0 = a.allocate().unwrap().0;
        let b1 = a.allocate().unwrap().0;
        assert!(a.shrink(1).is_err(), "block 1 is live above the bound");
        a.free(b1).unwrap();
        a.shrink(1).unwrap();
        assert_eq!(a.num_blocks(), 1);
        assert_eq!(a.num_free(), 0);
        assert_eq!(a.allocate(), Err(VllmError::OutOfGpuBlocks));
        a.free(b0).unwrap();
        assert_eq!(a.num_free(), 1);
    }

    #[test]
    fn relocate_moves_refcount_and_frees_source() {
        let mut a = BlockAllocator::new(Device::Gpu, 4);
        let b0 = a.allocate().unwrap().0;
        let _b1 = a.allocate().unwrap().0;
        let b2 = a.allocate().unwrap().0;
        a.incr_ref(b2).unwrap();
        a.free(b0).unwrap(); // Hole at 0.
        assert_eq!(a.live_at_or_above(2), vec![2]);
        assert_eq!(a.lowest_free_below(2), Some(0));
        assert_eq!(a.highest_live(), Some(2));
        a.relocate(b2, 0).unwrap();
        assert_eq!(a.ref_count(0).unwrap(), 2);
        assert_eq!(a.ref_count(2).unwrap(), 0);
        assert_eq!(a.highest_live(), Some(1));
        // Relocating a free source or onto a live target is rejected.
        assert!(a.relocate(2, 3).is_err());
        assert!(a.relocate(0, 1).is_err());
    }

    #[test]
    fn hashed_blocks_stay_cached_while_free_and_are_evicted_oldest_first() {
        let mut a = BlockAllocator::new(Device::Gpu, 4);
        let ids: Vec<_> = (0..4).map(|_| a.allocate().unwrap().0).collect();
        for &b in &ids[..3] {
            a.set_hash(b, 100 + b as u64);
        }
        // Freed 2, 0, 3 (unhashed), 1: all four are free, three still cached.
        for b in [2, 0, 3, 1] {
            a.free(b).unwrap();
        }
        assert_eq!((a.num_free(), a.num_cached_free()), (4, 3));
        a.assert_consistent();
        // Reviving from the middle of the list keeps data and hash.
        a.acquire(0).unwrap();
        assert_eq!((a.ref_count(0).unwrap(), a.hash(0)), (1, Some(100)));
        // A live hit just gains a sharer; an unhashed block cannot be hit.
        a.acquire(0).unwrap();
        assert_eq!(a.ref_count(0).unwrap(), 2);
        assert!(a.acquire(3).is_err());
        a.assert_consistent();
        // The unhashed block goes first, then hashed ones oldest-freed first,
        // each giving up its hash as it is handed out.
        assert_eq!(a.allocate().unwrap(), (3, None));
        assert_eq!(a.allocate().unwrap(), (2, Some(102)));
        assert_eq!(a.allocate().unwrap(), (1, Some(101)));
        assert_eq!(a.allocate(), Err(VllmError::OutOfGpuBlocks));
        assert_eq!(a.hash(2), None);
        a.assert_consistent();
    }

    #[test]
    fn relocate_and_shrink_carry_and_drop_hashes() {
        let mut a = BlockAllocator::new(Device::Gpu, 4);
        let ids: Vec<_> = (0..4).map(|_| a.allocate().unwrap().0).collect();
        for &b in &ids {
            a.set_hash(b, 100 + b as u64);
        }
        // Cached free blocks below and above the bound.
        a.free(0).unwrap();
        a.free(2).unwrap();
        // The move overwrites block 0, so its hash is evicted; block 3's
        // hash moves with its data.
        assert_eq!(a.relocate(3, 0).unwrap(), Some(100));
        assert_eq!((a.hash(0), a.hash(3)), (Some(103), None));
        a.assert_consistent();
        assert_eq!(a.shrink(2).unwrap(), vec![102]);
        assert_eq!((a.num_free(), a.num_cached_free()), (0, 0));
        a.assert_consistent();
        // Dropping the hash of a cached free block makes it a plain one.
        a.free(1).unwrap();
        assert_eq!(a.clear_hash(1), Some(101));
        assert_eq!((a.num_free(), a.num_cached_free()), (1, 0));
        a.assert_consistent();
    }

    #[test]
    fn total_refs_counts_sharers() {
        let mut a = BlockAllocator::new(Device::Gpu, 4);
        let b0 = a.allocate().unwrap().0;
        let _b1 = a.allocate().unwrap().0;
        a.incr_ref(b0).unwrap();
        a.incr_ref(b0).unwrap();
        assert_eq!(a.total_refs(), 4);
    }
}
