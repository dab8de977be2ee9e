//! Bounded, concurrently shared buffer pool.
//!
//! The paper restricts every approach to the same main-memory footprint
//! (1 GB) so that dataset sizes exceed memory and disk behaviour dominates.
//! The [`BufferPool`] plays that role here: page reads go through it, hits
//! cost (almost) nothing in the cost model, and its capacity is the memory
//! budget knob of [`crate::StorageOptions`].
//!
//! Frames are shared, not copied: a hit hands out a [`Page`] that points at
//! the pool's own frame (a reference-count bump), and inserts and
//! write-through updates store the caller's frame the same way. A reader
//! that mutates its page copies the frame first (see [`crate::page`]), so
//! the cached copy never changes under the pool.
//!
//! # Concurrency
//!
//! The pool is safe to use through `&self` from many threads. Large pools
//! (≥ [`SHARD_MIN_CAPACITY`] pages) are split into [`SHARD_COUNT`] independent
//! shards, each its own mutex-protected LRU, so concurrent readers of
//! different pages rarely contend; eviction is then LRU *per shard* rather
//! than globally. Small pools keep a single shard and therefore exact global
//! LRU order (which the deterministic cost-model tests rely on).

use crate::file::FileId;
use crate::page::{Page, PageId};
use crate::sync::{Exclusive, LockClass};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

/// Key of a cached page.
pub type FramePageKey = (FileId, PageId);

/// Number of shards used by large pools.
pub const SHARD_COUNT: usize = 16;

/// Pools with at least this many pages of capacity are sharded.
pub const SHARD_MIN_CAPACITY: usize = 1024;

/// One LRU shard: the seed implementation's map + recency index.
#[derive(Default)]
struct Shard {
    tick: u64,
    frames: HashMap<FramePageKey, (Page, u64)>,
    lru: BTreeMap<u64, FramePageKey>,
}

impl Shard {
    fn get(&mut self, key: FramePageKey) -> Option<Page> {
        self.tick += 1;
        let tick = self.tick;
        if let Some((page, old_tick)) = self.frames.get_mut(&key) {
            self.lru.remove(old_tick);
            *old_tick = tick;
            let page = page.clone();
            self.lru.insert(tick, key);
            Some(page)
        } else {
            None
        }
    }

    /// Returns `true` if an eviction was necessary.
    fn insert(&mut self, key: FramePageKey, page: Page, capacity: usize) -> bool {
        self.tick += 1;
        let tick = self.tick;
        if let Some((slot, old_tick)) = self.frames.get_mut(&key) {
            *slot = page;
            self.lru.remove(old_tick);
            *old_tick = tick;
            self.lru.insert(tick, key);
            return false;
        }
        let mut evicted = false;
        if self.frames.len() >= capacity {
            if let Some((&oldest_tick, &oldest_key)) = self.lru.iter().next() {
                self.lru.remove(&oldest_tick);
                self.frames.remove(&oldest_key);
                evicted = true;
            }
        }
        self.frames.insert(key, (page, tick));
        self.lru.insert(tick, key);
        evicted
    }

    fn invalidate(&mut self, key: FramePageKey) {
        if let Some((_, tick)) = self.frames.remove(&key) {
            self.lru.remove(&tick);
        }
    }
}

/// A fixed-capacity page cache with least-recently-used eviction, shared
/// across query threads.
pub struct BufferPool {
    capacity: usize,
    capacity_per_shard: usize,
    shards: Vec<Exclusive<Shard>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity)
            .field("shards", &self.shards.len())
            .field("resident", &self.resident())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("evictions", &self.evictions())
            .finish()
    }
}

impl BufferPool {
    /// Creates a pool that caches up to `capacity` pages. A capacity of zero
    /// disables caching entirely (every access goes to the device).
    pub fn new(capacity: usize) -> Self {
        let shard_count = if capacity >= SHARD_MIN_CAPACITY {
            SHARD_COUNT
        } else {
            1
        };
        BufferPool {
            capacity,
            capacity_per_shard: capacity.div_ceil(shard_count),
            shards: (0..shard_count)
                .map(|_| Exclusive::new(LockClass::BufferShard, Shard::default()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Maximum number of resident pages.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of independently locked LRU shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of pages currently cached.
    pub fn resident(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.lock().frames.len())
            .sum()
    }

    /// Number of lookups that found the page cached.
    #[inline]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that missed.
    #[inline]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of pages evicted to respect the capacity.
    #[inline]
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    // analyzer: lock(shard = BufferShard)
    fn shard(&self, key: &FramePageKey) -> &Exclusive<Shard> {
        // FileId in the high bits, page in the low bits; a multiplicative
        // hash spreads consecutive pages across shards.
        let mixed = ((key.0 .0 as u64) << 40 ^ key.1 .0).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        &self.shards[(mixed >> 48) as usize % self.shards.len()]
    }

    /// Looks up a page, refreshing its recency on a hit.
    pub fn get(&self, key: FramePageKey) -> Option<Page> {
        let result = self.shard(&key).lock().get(key);
        match &result {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        result
    }

    /// Inserts (or refreshes) a page, evicting the least recently used page
    /// of the key's shard if the shard is full. No-op when the capacity is
    /// zero.
    pub fn insert(&self, key: FramePageKey, page: Page) {
        if self.capacity == 0 {
            return;
        }
        let evicted = self
            .shard(&key)
            .lock()
            .insert(key, page, self.capacity_per_shard);
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Updates a page if (and only if) it is resident; used by write-through
    /// so cached copies never go stale.
    pub fn update_if_resident(&self, key: FramePageKey, page: &Page) {
        let mut shard = self.shard(&key).lock();
        if let Some((slot, _)) = shard.frames.get_mut(&key) {
            *slot = page.clone();
        }
    }

    /// Removes a cached page (e.g. when its file is dropped).
    pub fn invalidate(&self, key: FramePageKey) {
        self.shard(&key).lock().invalidate(key);
    }

    /// Removes every cached page of the given file.
    pub fn invalidate_file(&self, file: FileId) {
        for shard in &self.shards {
            let mut shard = shard.lock();
            let keys: Vec<FramePageKey> = shard
                .frames
                .keys()
                .filter(|(f, _)| *f == file)
                .copied()
                .collect();
            for k in keys {
                shard.invalidate(k);
            }
        }
    }

    /// Drops every cached page (the paper clears caches between phases).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock();
            shard.frames.clear();
            shard.lru.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(f: u32, p: u64) -> FramePageKey {
        (FileId(f), PageId(p))
    }

    #[test]
    fn empty_pool_misses() {
        let pool = BufferPool::new(4);
        assert!(pool.get(key(0, 0)).is_none());
        assert_eq!(pool.misses(), 1);
        assert_eq!(pool.hits(), 0);
    }

    #[test]
    fn insert_then_hit() {
        let pool = BufferPool::new(4);
        pool.insert(key(0, 1), Page::empty());
        assert!(pool.get(key(0, 1)).is_some());
        assert_eq!(pool.hits(), 1);
        assert_eq!(pool.resident(), 1);
    }

    #[test]
    fn capacity_zero_disables_caching() {
        let pool = BufferPool::new(0);
        pool.insert(key(0, 1), Page::empty());
        assert_eq!(pool.resident(), 0);
        assert!(pool.get(key(0, 1)).is_none());
    }

    #[test]
    fn lru_eviction_order() {
        let pool = BufferPool::new(2);
        pool.insert(key(0, 0), Page::empty());
        pool.insert(key(0, 1), Page::empty());
        // Touch page 0 so page 1 becomes the LRU victim.
        assert!(pool.get(key(0, 0)).is_some());
        pool.insert(key(0, 2), Page::empty());
        assert_eq!(pool.resident(), 2);
        assert_eq!(pool.evictions(), 1);
        assert!(pool.get(key(0, 0)).is_some(), "recently used page survives");
        assert!(pool.get(key(0, 1)).is_none(), "LRU page evicted");
        assert!(pool.get(key(0, 2)).is_some());
    }

    #[test]
    fn reinsert_refreshes_instead_of_duplicating() {
        let pool = BufferPool::new(2);
        pool.insert(key(0, 0), Page::empty());
        pool.insert(key(0, 0), Page::empty());
        assert_eq!(pool.resident(), 1);
        pool.insert(key(0, 1), Page::empty());
        pool.insert(key(0, 2), Page::empty());
        assert_eq!(pool.resident(), 2);
    }

    #[test]
    fn update_if_resident_only_touches_existing() {
        use odyssey_geom::{Aabb, DatasetId, ObjectId, SpatialObject, Vec3};
        let pool = BufferPool::new(2);
        let obj = SpatialObject::new(
            ObjectId(7),
            DatasetId(0),
            Aabb::from_min_max(Vec3::ZERO, Vec3::ONE),
        );
        let page = Page::from_objects(&[obj]).unwrap();
        pool.update_if_resident(key(0, 0), &page);
        assert_eq!(pool.resident(), 0);
        pool.insert(key(0, 0), Page::empty());
        pool.update_if_resident(key(0, 0), &page);
        let got = pool.get(key(0, 0)).unwrap();
        assert_eq!(got.objects().unwrap().len(), 1);
    }

    #[test]
    fn invalidation() {
        let pool = BufferPool::new(8);
        pool.insert(key(0, 0), Page::empty());
        pool.insert(key(0, 1), Page::empty());
        pool.insert(key(1, 0), Page::empty());
        pool.invalidate(key(0, 0));
        assert!(pool.get(key(0, 0)).is_none());
        pool.invalidate_file(FileId(0));
        assert!(pool.get(key(0, 1)).is_none());
        assert!(pool.get(key(1, 0)).is_some());
        pool.clear();
        assert_eq!(pool.resident(), 0);
    }

    #[test]
    fn heavy_insertion_respects_capacity() {
        let pool = BufferPool::new(16);
        for i in 0..1000u64 {
            pool.insert(key(0, i), Page::empty());
            assert!(pool.resident() <= 16);
        }
        assert_eq!(pool.evictions(), 1000 - 16);
    }

    #[test]
    fn small_pools_are_single_shard_large_pools_are_sharded() {
        assert_eq!(BufferPool::new(16).shard_count(), 1);
        assert_eq!(
            BufferPool::new(SHARD_MIN_CAPACITY).shard_count(),
            SHARD_COUNT
        );
    }

    #[test]
    fn sharded_pool_respects_total_capacity_approximately() {
        let pool = BufferPool::new(SHARD_MIN_CAPACITY);
        for i in 0..100_000u64 {
            pool.insert(key((i % 7) as u32, i), Page::empty());
        }
        // Per-shard capacity is capacity/SHARD_COUNT rounded up, so the pool
        // may exceed the nominal capacity by at most one page per shard.
        assert!(pool.resident() <= SHARD_MIN_CAPACITY + SHARD_COUNT);
        assert!(
            pool.resident() >= SHARD_MIN_CAPACITY / 2,
            "shards should fill up"
        );
    }

    #[test]
    fn concurrent_access_is_safe_and_consistent() {
        let pool = BufferPool::new(SHARD_MIN_CAPACITY);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let pool = &pool;
                s.spawn(move || {
                    for i in 0..500u64 {
                        let k = key(t as u32, i);
                        pool.insert(k, Page::empty());
                        let _ = pool.get(k);
                    }
                });
            }
        });
        assert_eq!(pool.hits() + pool.misses(), 8 * 500);
        assert!(pool.resident() <= SHARD_MIN_CAPACITY + SHARD_COUNT);
    }
}
