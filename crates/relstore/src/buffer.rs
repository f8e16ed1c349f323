//! Buffer pool with CLOCK eviction.
//!
//! Frames cache `(FileId, page_no)` pages. Eviction only ever selects
//! **clean, unpinned** frames: dirty pages are written back exclusively by
//! explicit flush calls (transaction commit and checkpoints). Together with
//! redo-only WAL this gives the engine a *no-steal* policy — an uncommitted
//! transaction's changes never reach disk — so crash recovery never needs
//! undo. If every frame is dirty or pinned, the pool grows past its nominal
//! capacity rather than blocking (transactions are expected to fit in
//! memory; the growth is bounded by the active transaction's write set).

use crate::disk::{FileId, FileManager};
use crate::error::Result;
use crate::page::PAGE_SIZE;
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Cache key of one page.
pub type PageKey = (FileId, u32);

/// Pages dirtied since the last [`BufferPool::take_dirty_log`] drain. The
/// single writer drains this at every commit to know which page images the
/// MVCC publication overlay must carry.
type DirtyLog = Arc<Mutex<HashSet<PageKey>>>;

struct Frame {
    key: PageKey,
    data: RwLock<Box<[u8]>>,
    dirty: AtomicBool,
    pins: AtomicU32,
    referenced: AtomicBool,
    /// True while `key` sits in the shared dirty log. Reset by the drain, so
    /// a page re-modified after a publication re-enters the next interval's
    /// log even though `dirty` never transitioned (it may stay set across
    /// several commits until a checkpoint flushes it).
    in_log: AtomicBool,
    log: DirtyLog,
}

impl Frame {
    fn log_write(&self) {
        if !self.in_log.swap(true, Ordering::SeqCst) {
            self.log.lock().insert(self.key);
        }
    }
}

netmark_model::stats! {
    /// Counters exposed for the buffer-pool ablation benchmark.
    pub struct PoolStats => "pool" {
        /// Page requests served from the cache.
        hits: u64 = sum("hits"),
        /// Page requests that had to read from disk.
        misses: u64 = sum("misses"),
        /// Clean frames recycled by the CLOCK hand.
        evictions: u64 = sum("evictions"),
    }
}

/// Read access to committed-or-live page images. The B-tree and heap read
/// walks ([`crate::btree`], [`crate::heap`]) are written once against this
/// trait and run over two sources: the [`BufferPool`] (a latched read of the
/// live frame, no copy) and a pinned MVCC snapshot
/// ([`crate::snapshot::PageSource`]).
pub(crate) trait PageRead {
    /// Pages allocated in `file`, as this source sees it.
    fn page_count(&self, file: FileId) -> u32;

    /// Runs `f` over the bytes of page `page_no` of `file`.
    fn with_page<R>(
        &self,
        file: FileId,
        page_no: u32,
        f: impl FnOnce(&[u8]) -> Result<R>,
    ) -> Result<R>;
}

/// A shared, thread-safe pool of page frames.
pub struct BufferPool {
    fm: Arc<FileManager>,
    capacity: usize,
    inner: Mutex<PoolInner>,
    dirty_log: DirtyLog,
    /// Read-view page requests ([`BufferPool::read_committed`]) served
    /// from a clean frame, and those left to read from disk. Kept apart
    /// from `PoolInner::stats` so that call need not lock the pool twice;
    /// [`BufferPool::stats`] adds them in.
    view_hits: AtomicU64,
    view_misses: AtomicU64,
}

struct PoolInner {
    frames: HashMap<PageKey, Arc<Frame>>,
    /// CLOCK order; entries may be stale (frame since removed).
    clock: Vec<PageKey>,
    hand: usize,
    stats: PoolStats,
    /// Set when a full sweep found every frame dirty or pinned. While set,
    /// misses skip the (futile) sweep and grow the pool directly; any flush
    /// clears it. Keeps no-steal saturation amortized O(1) per miss instead
    /// of O(pool) between checkpoints.
    saturated: bool,
}

/// A pinned page. The page stays in the pool while any guard exists.
/// Obtain read or write access via [`PageGuard::read`] / [`PageGuard::write`].
pub struct PageGuard {
    frame: Arc<Frame>,
}

impl Clone for PageGuard {
    fn clone(&self) -> Self {
        self.frame.pins.fetch_add(1, Ordering::Relaxed);
        PageGuard {
            frame: Arc::clone(&self.frame),
        }
    }
}

impl Drop for PageGuard {
    fn drop(&mut self) {
        self.frame.pins.fetch_sub(1, Ordering::Relaxed);
    }
}

impl PageGuard {
    /// Shared access to the page bytes.
    pub fn read(&self) -> RwLockReadGuard<'_, Box<[u8]>> {
        self.frame.data.read()
    }

    /// Exclusive access to the page bytes; marks the page dirty and records
    /// it in the pool's dirty log for the next MVCC publication.
    pub fn write(&self) -> RwLockWriteGuard<'_, Box<[u8]>> {
        self.frame.dirty.store(true, Ordering::Relaxed);
        self.frame.log_write();
        self.frame.data.write()
    }

    /// The `(file, page)` this guard pins.
    pub fn key(&self) -> PageKey {
        self.frame.key
    }
}

impl BufferPool {
    /// Creates a pool of `capacity` frames over `fm`.
    pub fn new(fm: Arc<FileManager>, capacity: usize) -> BufferPool {
        BufferPool {
            fm,
            capacity: capacity.max(4),
            inner: Mutex::new(PoolInner {
                frames: HashMap::new(),
                clock: Vec::new(),
                hand: 0,
                stats: PoolStats::default(),
                saturated: false,
            }),
            dirty_log: Arc::new(Mutex::new(HashSet::new())),
            view_hits: AtomicU64::new(0),
            view_misses: AtomicU64::new(0),
        }
    }

    /// The underlying file manager.
    pub fn file_manager(&self) -> &Arc<FileManager> {
        &self.fm
    }

    /// Snapshot of hit/miss/eviction counters, read-view requests
    /// included.
    pub fn stats(&self) -> PoolStats {
        let mut stats = self.inner.lock().stats;
        stats.hits += self.view_hits.load(Ordering::Relaxed);
        stats.misses += self.view_misses.load(Ordering::Relaxed);
        stats
    }

    /// Pins page `(file, page_no)`, reading it from disk on a miss.
    pub fn fetch(&self, file: FileId, page_no: u32) -> Result<PageGuard> {
        let mut inner = self.inner.lock();
        if let Some(frame) = inner.frames.get(&(file, page_no)).cloned() {
            inner.stats.hits += 1;
            frame.referenced.store(true, Ordering::Relaxed);
            frame.pins.fetch_add(1, Ordering::Relaxed);
            return Ok(PageGuard { frame });
        }
        inner.stats.misses += 1;
        self.make_room(&mut inner);
        // Read outside would be nicer, but a single mutex keeps the pool
        // simple and the engine is single-writer by design.
        let mut buf = vec![0u8; PAGE_SIZE].into_boxed_slice();
        self.fm.read_page(file, page_no, &mut buf)?;
        Ok(self.install(&mut inner, (file, page_no), buf))
    }

    /// Allocates a brand-new page in `file` and pins it (zero-filled; the
    /// caller formats it). Returns the page number and guard.
    pub fn allocate(&self, file: FileId) -> Result<(u32, PageGuard)> {
        let page_no = self.fm.allocate_page(file)?;
        let mut inner = self.inner.lock();
        self.make_room(&mut inner);
        let buf = vec![0u8; PAGE_SIZE].into_boxed_slice();
        Ok((page_no, self.install(&mut inner, (file, page_no), buf)))
    }

    fn install(&self, inner: &mut PoolInner, key: PageKey, buf: Box<[u8]>) -> PageGuard {
        let frame = Arc::new(Frame {
            key,
            data: RwLock::new(buf),
            dirty: AtomicBool::new(false),
            pins: AtomicU32::new(1),
            referenced: AtomicBool::new(true),
            in_log: AtomicBool::new(false),
            log: Arc::clone(&self.dirty_log),
        });
        inner.frames.insert(key, Arc::clone(&frame));
        inner.clock.push(key);
        PageGuard { frame }
    }

    /// CLOCK sweep: recycle one clean, unpinned frame if the pool is full.
    fn make_room(&self, inner: &mut PoolInner) {
        if inner.frames.len() < self.capacity || inner.saturated {
            return;
        }
        let n = inner.clock.len();
        // Two full sweeps: the first clears reference bits, the second picks
        // the first clean victim.
        for _ in 0..2 * n {
            if inner.clock.is_empty() {
                return;
            }
            let hand = inner.hand % inner.clock.len();
            inner.hand = (hand + 1) % inner.clock.len().max(1);
            let key = inner.clock[hand];
            let Some(frame) = inner.frames.get(&key) else {
                inner.clock.swap_remove(hand);
                inner.hand = if inner.clock.is_empty() {
                    0
                } else {
                    hand % inner.clock.len()
                };
                continue;
            };
            if frame.pins.load(Ordering::Relaxed) > 0 || frame.dirty.load(Ordering::Relaxed) {
                continue;
            }
            if frame.referenced.swap(false, Ordering::Relaxed) {
                continue;
            }
            inner.frames.remove(&key);
            inner.clock.swap_remove(hand);
            inner.hand = if inner.clock.is_empty() {
                0
            } else {
                hand % inner.clock.len()
            };
            inner.stats.evictions += 1;
            return;
        }
        // No clean victim: grow (no-steal — dirty pages stay in memory).
        inner.saturated = true;
    }

    /// Writes one dirty page back to disk and marks it clean.
    pub fn flush_page(&self, file: FileId, page_no: u32) -> Result<()> {
        let frame = {
            let inner = self.inner.lock();
            inner.frames.get(&(file, page_no)).cloned()
        };
        if let Some(frame) = frame {
            if frame.dirty.load(Ordering::Relaxed) {
                let data = frame.data.read();
                self.fm.write_page(file, page_no, &data)?;
                frame.dirty.store(false, Ordering::Relaxed);
                self.inner.lock().saturated = false;
            }
        }
        Ok(())
    }

    /// Flushes every dirty page (checkpoint). Returns how many were written.
    pub fn flush_all(&self) -> Result<usize> {
        let frames: Vec<Arc<Frame>> = {
            let inner = self.inner.lock();
            inner.frames.values().cloned().collect()
        };
        let mut written = 0;
        let mut files: Vec<FileId> = Vec::new();
        for frame in frames {
            if frame.dirty.load(Ordering::Relaxed) {
                let data = frame.data.read();
                self.fm.write_page(frame.key.0, frame.key.1, &data)?;
                frame.dirty.store(false, Ordering::Relaxed);
                written += 1;
                if !files.contains(&frame.key.0) {
                    files.push(frame.key.0);
                }
            }
        }
        for f in files {
            self.fm.sync(f)?;
        }
        if written > 0 {
            self.inner.lock().saturated = false;
        }
        Ok(written)
    }

    /// Drops every cached frame for `file` without writing (used when a
    /// file is truncated for rebuild).
    pub fn discard_file(&self, file: FileId) {
        let mut inner = self.inner.lock();
        inner.frames.retain(|k, _| k.0 != file);
        inner.clock.retain(|k| k.0 != file);
        inner.hand = 0;
    }

    /// Drains the dirty log: every page written since the previous drain.
    /// Called by the single writer at commit (to build the publication
    /// overlay) and at checkpoints (to discard it). Resets each resident
    /// frame's `in_log` flag so later writes re-enter the next interval.
    pub fn take_dirty_log(&self) -> Vec<PageKey> {
        let mut log = self.dirty_log.lock();
        let keys: Vec<PageKey> = log.drain().collect();
        drop(log);
        let inner = self.inner.lock();
        for key in &keys {
            if let Some(frame) = inner.frames.get(key) {
                frame.in_log.store(false, Ordering::SeqCst);
            }
        }
        keys
    }

    /// Copies the current bytes of each resident page in `keys`, for the
    /// MVCC commit overlay. Pages no longer resident are skipped: a frame
    /// only leaves the pool clean, and under no-steal a clean frame's bytes
    /// already equal the on-disk (committed) image, so readers fall back to
    /// disk for them. Called by the single writer at commit, when no page in
    /// its write set can be concurrently modified.
    pub fn snapshot_pages(&self, keys: &[PageKey]) -> Vec<(PageKey, Arc<[u8]>)> {
        let frames: Vec<Arc<Frame>> = {
            let inner = self.inner.lock();
            keys.iter()
                .filter_map(|k| inner.frames.get(k).cloned())
                .collect()
        };
        frames
            .into_iter()
            .map(|frame| {
                let data = frame.data.read();
                (frame.key, Arc::<[u8]>::from(&data[..]))
            })
            .collect()
    }

    /// Copies a resident page's bytes only if the frame is clean — i.e. its
    /// bytes are identical to the on-disk committed image. Returns `None` on
    /// a non-resident or dirty frame (callers then read from disk). Never
    /// installs a frame, so concurrent readers cannot thrash the writer's
    /// working set. Safe against a concurrent writer: `dirty` is set before
    /// the page write-lock is taken, and we test it while holding the read
    /// lock, so a false `dirty` means the bytes cannot be mid-modification.
    /// A copy counts as a pool hit; a `None` counts as a miss.
    pub fn read_committed(&self, file: FileId, page_no: u32) -> Option<Box<[u8]>> {
        let frame = self.inner.lock().frames.get(&(file, page_no)).cloned();
        let copy = frame.and_then(|frame| {
            let data = frame.data.read();
            (!frame.dirty.load(Ordering::SeqCst)).then(|| Box::<[u8]>::from(&data[..]))
        });
        let counter = match copy {
            Some(_) => &self.view_hits,
            None => &self.view_misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        copy
    }
}

impl PageRead for BufferPool {
    fn page_count(&self, file: FileId) -> u32 {
        self.fm.page_count(file)
    }

    fn with_page<R>(
        &self,
        file: FileId,
        page_no: u32,
        f: impl FnOnce(&[u8]) -> Result<R>,
    ) -> Result<R> {
        let guard = self.fetch(file, page_no)?;
        let data = guard.read();
        f(&data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn setup(tag: &str, cap: usize) -> (BufferPool, FileId, PathBuf) {
        let dir = std::env::temp_dir().join(format!("netmark-buf-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fm = Arc::new(FileManager::open(&dir).unwrap());
        let pool = BufferPool::new(Arc::clone(&fm), cap);
        let f = fm.open_file("t.tbl").unwrap();
        (pool, f, dir)
    }

    #[test]
    fn fetch_caches_pages() {
        let (pool, f, dir) = setup("cache", 8);
        let (p, g) = pool.allocate(f).unwrap();
        g.write()[0] = 42;
        drop(g);
        let g2 = pool.fetch(f, p).unwrap();
        assert_eq!(g2.read()[0], 42, "hit returns the cached copy");
        let st = pool.stats();
        assert_eq!(st.misses, 0, "allocate + hit, no disk read");
        assert!(st.hits >= 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn eviction_only_recycles_clean_frames() {
        let (pool, f, dir) = setup("evict", 4);
        // Dirty page that must survive any eviction pressure.
        let (p0, g0) = pool.allocate(f).unwrap();
        g0.write()[0] = 7;
        drop(g0);
        // Clean pages to create pressure.
        for _ in 0..16 {
            let (p, g) = pool.allocate(f).unwrap();
            g.write()[1] = 1;
            drop(g);
            pool.flush_page(f, p).unwrap();
        }
        // The dirty page is still resident with its uncommitted bytes.
        let g = pool.fetch(f, p0).unwrap();
        assert_eq!(g.read()[0], 7);
        assert!(pool.stats().evictions > 0, "clean frames were recycled");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn committed_reads_count_clean_frames_as_hits() {
        let (pool, f, dir) = setup("viewreads", 8);
        let (p, g) = pool.allocate(f).unwrap();
        g.write()[0] = 9;
        drop(g);
        let before = pool.stats();
        assert!(pool.read_committed(f, p).is_none(), "a dirty frame");
        pool.flush_page(f, p).unwrap();
        assert_eq!(pool.read_committed(f, p).unwrap()[0], 9, "a clean frame");
        pool.discard_file(f);
        assert!(pool.read_committed(f, p).is_none(), "an absent frame");
        let after = pool.stats();
        assert_eq!(after.hits - before.hits, 1);
        assert_eq!(after.misses - before.misses, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flush_all_persists_and_cleans() {
        let (pool, f, dir) = setup("flush", 8);
        let (p, g) = pool.allocate(f).unwrap();
        g.write()[5] = 55;
        drop(g);
        assert_eq!(pool.flush_all().unwrap(), 1);
        assert_eq!(pool.flush_all().unwrap(), 0, "second flush writes nothing");
        let mut buf = vec![0u8; PAGE_SIZE];
        pool.file_manager().read_page(f, p, &mut buf).unwrap();
        assert_eq!(buf[5], 55);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
