//! The buffer-pool manager.
//!
//! All page access in the engine goes through [`BufferPool`]: a fixed number
//! of frames (the paper's `B`), a page table, a [`ReplacementPolicy`], and
//! hit/miss accounting. A *miss* triggers a physical read on the
//! [`DiskManager`] — the paper's "page fetch" — and possibly an eviction
//! (with write-back if dirty).
//!
//! Access is closure-scoped ([`BufferPool::with_page`] /
//! [`BufferPool::with_page_mut`]) rather than guard-based: the page is pinned
//! for the duration of the closure and unpinned on return, which keeps the
//! single-threaded engine simple while still exercising real pin/unpin
//! bookkeeping (evictions skip pinned frames).

use crate::disk::DiskManager;
use crate::page::{PageId, PAGE_SIZE};
use crate::replacement::{ClockPolicy, FifoPolicy, LruPolicy, ReplacementPolicy};
use crate::{Result, StorageError};
use std::collections::HashMap;

/// Which replacement policy a pool should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Least recently used — the paper's assumption.
    Lru,
    /// First in, first out.
    Fifo,
    /// Clock / second chance.
    Clock,
}

/// Pool construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Number of frames (the paper's buffer size `B`, in pages).
    pub frames: usize,
    /// Replacement policy.
    pub policy: PolicyKind,
}

impl PoolConfig {
    /// An LRU pool of `frames` pages.
    pub fn lru(frames: usize) -> Self {
        PoolConfig {
            frames,
            policy: PolicyKind::Lru,
        }
    }
}

/// Buffer access counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Total page requests (logical accesses, the paper's `A`-side events).
    pub requests: u64,
    /// Requests satisfied from the pool.
    pub hits: u64,
    /// Requests that required a physical read (the paper's fetches `F`).
    pub misses: u64,
    /// Pages written back on eviction.
    pub evictions_dirty: u64,
    /// Clean evictions.
    pub evictions_clean: u64,
}

impl PoolStats {
    /// Hit ratio over all requests; 0 when no requests were made.
    pub fn hit_ratio(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }
}

struct Frame {
    page_id: PageId,
    data: Box<[u8]>,
    dirty: bool,
    pin_count: u32,
    occupied: bool,
}

impl Frame {
    fn empty() -> Self {
        Frame {
            page_id: 0,
            data: vec![0u8; PAGE_SIZE].into_boxed_slice(),
            dirty: false,
            pin_count: 0,
            occupied: false,
        }
    }
}

/// A fixed-size page cache in front of a [`DiskManager`].
///
/// ```
/// use epfis_storage::{BufferPool, DiskManager, InMemoryDisk, PoolConfig};
///
/// let mut disk = InMemoryDisk::new();
/// for _ in 0..3 {
///     disk.allocate_page();
/// }
/// let mut pool = BufferPool::new(disk, PoolConfig::lru(2));
/// for pid in [0u32, 1, 0, 2, 0, 1] {
///     pool.with_page(pid, |_bytes| ()).unwrap();
/// }
/// // Classic LRU reference counts for this trace with 2 frames:
/// assert_eq!(pool.stats().misses, 4);
/// assert_eq!(pool.stats().hits, 2);
/// ```
pub struct BufferPool<D: DiskManager> {
    disk: D,
    frames: Vec<Frame>,
    page_table: HashMap<PageId, usize>,
    free_list: Vec<usize>,
    policy: Box<dyn ReplacementPolicy + Send>,
    stats: PoolStats,
}

impl<D: DiskManager> BufferPool<D> {
    /// Creates a pool over `disk` with the given configuration.
    ///
    /// # Panics
    /// Panics if `config.frames == 0`: a zero-page buffer pool cannot hold
    /// even the page currently being accessed.
    pub fn new(disk: D, config: PoolConfig) -> Self {
        assert!(config.frames > 0, "buffer pool needs at least one frame");
        let policy: Box<dyn ReplacementPolicy + Send> = match config.policy {
            PolicyKind::Lru => Box::new(LruPolicy::new(config.frames)),
            PolicyKind::Fifo => Box::new(FifoPolicy::new(config.frames)),
            PolicyKind::Clock => Box::new(ClockPolicy::new(config.frames)),
        };
        BufferPool {
            disk,
            frames: (0..config.frames).map(|_| Frame::empty()).collect(),
            page_table: HashMap::with_capacity(config.frames * 2),
            free_list: (0..config.frames).rev().collect(),
            policy,
            stats: PoolStats::default(),
        }
    }

    /// Number of frames.
    pub fn capacity(&self) -> usize {
        self.frames.len()
    }

    /// Access counters so far.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Resets access counters (e.g. after a load phase).
    pub fn reset_stats(&mut self) {
        self.stats = PoolStats::default();
        self.disk.reset_stats();
    }

    /// The underlying disk (for its stats or page count).
    pub fn disk(&self) -> &D {
        &self.disk
    }

    /// Allocates a fresh page on disk and returns its id. The page is not
    /// brought into the pool until first access.
    pub fn allocate_page(&mut self) -> PageId {
        self.disk.allocate_page()
    }

    /// Set of page ids currently resident (diagnostics / inclusion tests).
    pub fn resident_pages(&self) -> Vec<PageId> {
        let mut v: Vec<PageId> = self.page_table.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Runs `f` over an immutable view of page `id`, faulting it in if
    /// needed. The page is pinned for the duration of `f`.
    pub fn with_page<R>(&mut self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        let frame = self.pin(id)?;
        let out = f(&self.frames[frame].data);
        self.unpin(frame, false);
        Ok(out)
    }

    /// Runs `f` over a mutable view of page `id`, marking it dirty.
    pub fn with_page_mut<R>(&mut self, id: PageId, f: impl FnOnce(&mut [u8]) -> R) -> Result<R> {
        let frame = self.pin(id)?;
        let out = f(&mut self.frames[frame].data);
        self.unpin(frame, true);
        Ok(out)
    }

    /// Writes every dirty frame back to disk (does not evict).
    pub fn flush_all(&mut self) -> Result<()> {
        for i in 0..self.frames.len() {
            if self.frames[i].occupied && self.frames[i].dirty {
                let pid = self.frames[i].page_id;
                self.disk.write_page(pid, &self.frames[i].data)?;
                self.frames[i].dirty = false;
            }
        }
        Ok(())
    }

    /// Tears the pool down, flushing dirty pages, and returns the disk.
    pub fn into_disk(mut self) -> Result<D> {
        self.flush_all()?;
        Ok(self.disk)
    }

    fn pin(&mut self, id: PageId) -> Result<usize> {
        self.stats.requests += 1;
        if let Some(&frame) = self.page_table.get(&id) {
            self.stats.hits += 1;
            self.frames[frame].pin_count += 1;
            self.policy.on_access(frame);
            return Ok(frame);
        }
        self.stats.misses += 1;
        let frame = match self.acquire_frame() {
            Ok(frame) => frame,
            Err(e) => {
                // Nothing was installed; undo the miss accounting.
                self.stats.misses -= 1;
                self.stats.requests -= 1;
                return Err(e);
            }
        };
        // Read before installing in the table so a failed read leaves the
        // pool consistent.
        let res = {
            let f = &mut self.frames[frame];
            self.disk.read_page(id, &mut f.data)
        };
        if let Err(e) = res {
            self.free_list.push(frame);
            self.stats.misses -= 1;
            self.stats.requests -= 1;
            return Err(e);
        }
        let f = &mut self.frames[frame];
        f.page_id = id;
        f.dirty = false;
        f.pin_count = 1;
        f.occupied = true;
        self.page_table.insert(id, frame);
        self.policy.on_insert(frame);
        Ok(frame)
    }

    fn unpin(&mut self, frame: usize, dirty: bool) {
        let f = &mut self.frames[frame];
        debug_assert!(f.pin_count > 0, "unpin without pin");
        f.pin_count -= 1;
        if dirty {
            f.dirty = true;
        }
    }

    fn acquire_frame(&mut self) -> Result<usize> {
        if let Some(frame) = self.free_list.pop() {
            return Ok(frame);
        }
        let frames = &self.frames;
        let victim = self
            .policy
            .evict(&mut |f| frames[f].pin_count == 0)
            .ok_or(StorageError::PoolExhausted)?;
        let v = &mut self.frames[victim];
        debug_assert!(v.occupied);
        if v.dirty {
            if let Err(e) = self.disk.write_page(v.page_id, &v.data) {
                // Write-back failed: the victim stays resident and dirty;
                // put it back under the policy's control so a later access
                // or eviction can still find it.
                self.policy.on_insert(victim);
                return Err(e);
            }
            self.stats.evictions_dirty += 1;
        } else {
            self.stats.evictions_clean += 1;
        }
        self.page_table.remove(&v.page_id);
        v.occupied = false;
        v.dirty = false;
        Ok(victim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::InMemoryDisk;
    use crate::page;

    fn pool_with_pages(frames: usize, pages: u32, policy: PolicyKind) -> BufferPool<InMemoryDisk> {
        let mut disk = InMemoryDisk::new();
        for _ in 0..pages {
            disk.allocate_page();
        }
        disk.reset_stats();
        BufferPool::new(disk, PoolConfig { frames, policy })
    }

    #[test]
    fn hit_after_first_access() {
        let mut pool = pool_with_pages(2, 1, PolicyKind::Lru);
        pool.with_page(0, |_| ()).unwrap();
        pool.with_page(0, |_| ()).unwrap();
        let s = pool.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(pool.disk().stats().reads, 1);
    }

    #[test]
    fn lru_eviction_pattern_matches_reference() {
        // Classic trace: with B=2 and trace 0,1,0,2,0,1 under LRU the misses
        // are 0,1,2,1 -> 4 misses, 2 hits.
        let mut pool = pool_with_pages(2, 3, PolicyKind::Lru);
        for pid in [0u32, 1, 0, 2, 0, 1] {
            pool.with_page(pid, |_| ()).unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.misses, 4);
        assert_eq!(s.hits, 2);
    }

    #[test]
    fn writes_survive_eviction() {
        let mut pool = pool_with_pages(1, 2, PolicyKind::Lru);
        pool.with_page_mut(0, |b| {
            page::insert(b, b"persisted").unwrap();
        })
        .unwrap();
        // Evict page 0 by touching page 1.
        pool.with_page(1, |_| ()).unwrap();
        assert_eq!(pool.stats().evictions_dirty, 1);
        // Fault 0 back in and observe the write.
        let got = pool
            .with_page(0, |b| page::get(b, 0).map(|x| x.to_vec()))
            .unwrap();
        assert_eq!(got.as_deref(), Some(&b"persisted"[..]));
    }

    #[test]
    fn clean_evictions_do_not_write() {
        let mut pool = pool_with_pages(1, 3, PolicyKind::Lru);
        for pid in [0u32, 1, 2] {
            pool.with_page(pid, |_| ()).unwrap();
        }
        assert_eq!(pool.stats().evictions_clean, 2);
        assert_eq!(pool.disk().stats().writes, 0);
    }

    #[test]
    fn missing_page_error_leaves_pool_consistent() {
        let mut pool = pool_with_pages(2, 1, PolicyKind::Lru);
        assert!(pool.with_page(42, |_| ()).is_err());
        // Counters rolled back; the pool still works.
        assert_eq!(pool.stats().requests, 0);
        pool.with_page(0, |_| ()).unwrap();
        assert_eq!(pool.stats().misses, 1);
    }

    #[test]
    fn into_disk_flushes_dirty_pages() {
        let mut pool = pool_with_pages(2, 1, PolicyKind::Lru);
        pool.with_page_mut(0, |b| {
            page::insert(b, b"flushed").unwrap();
        })
        .unwrap();
        let mut disk = pool.into_disk().unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        disk.read_page(0, &mut buf).unwrap();
        assert_eq!(page::get(&buf, 0), Some(&b"flushed"[..]));
    }

    #[test]
    fn sequential_scan_fetches_each_page_once_regardless_of_pool_size() {
        // Section 2: "For a table scan, the number of page fetches is exactly
        // T ... independent of the buffer pool size."
        for frames in [1usize, 3, 10] {
            let mut pool = pool_with_pages(frames, 10, PolicyKind::Lru);
            for pid in 0..10u32 {
                pool.with_page(pid, |_| ()).unwrap();
            }
            assert_eq!(pool.stats().misses, 10, "frames={frames}");
        }
    }

    #[test]
    fn resident_set_never_exceeds_capacity() {
        let mut pool = pool_with_pages(3, 8, PolicyKind::Clock);
        for pid in (0..8u32).chain(0..8).chain((0..8).rev()) {
            pool.with_page(pid, |_| ()).unwrap();
            assert!(pool.resident_pages().len() <= 3);
        }
    }

    #[test]
    fn fifo_and_lru_differ_on_looping_trace() {
        // Trace 0,1,0,2,0,3,...: LRU keeps page 0 resident, FIFO evicts it.
        let trace: Vec<u32> = (1..20u32).flat_map(|p| [0, p]).collect();
        let run = |policy| {
            let mut pool = pool_with_pages(2, 20, policy);
            for &pid in &trace {
                pool.with_page(pid, |_| ()).unwrap();
            }
            pool.stats().misses
        };
        let lru = run(PolicyKind::Lru);
        let fifo = run(PolicyKind::Fifo);
        assert!(lru < fifo, "lru={lru} fifo={fifo}");
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_frame_pool_panics() {
        let _ = pool_with_pages(0, 1, PolicyKind::Lru);
    }
}
