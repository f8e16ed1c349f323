//! MVCC snapshot reads: copy-on-write page images published at commit.
//!
//! The engine is single-writer (serialized by the database `write_lock`),
//! which makes multi-version concurrency cheap: at each commit the writer
//! drains the buffer pool's dirty log and publishes a [`Snapshot`] — the
//! commit LSN plus an overlay of the page images that commit (and every
//! commit since the last checkpoint) produced. Publication is a pointer
//! swap under the database's view-registry mutex; a reader clones the
//! current `Arc<Snapshot>` under that same mutex when it registers its
//! view, and then resolves pages without ever taking a page latch:
//!
//! 1. **overlay hit** — the committed image published at or before the
//!    view's version;
//! 2. **clean pool frame** — under the no-steal policy a clean frame's
//!    bytes equal the on-disk committed image, so a copy is safe;
//! 3. **disk** — the no-steal / redo-only-WAL combination guarantees disk
//!    never holds uncommitted bytes, and pages dirtied *after* the view's
//!    version stay in memory until a checkpoint.
//!
//! Checkpoints are the one hazard: flushing dirty pages overwrites disk
//! images older views rely on. The checkpoint therefore waits up to
//! `max_view_lag` for stale views to drain, then marks the stragglers
//! *evicted* — an evicted view still serves every page in its overlay but
//! returns [`StoreError::ViewEvicted`] for pages it would have to fault in.
//!
//! [`PageSource`] implements [`PageRead`], so B-tree and heap reads over a
//! snapshot run the same walks ([`crate::btree`], [`crate::heap`]) as reads
//! over the live buffer pool.

use crate::buffer::{BufferPool, PageKey, PageRead};
use crate::disk::FileId;
use crate::error::{Result, StoreError};
use crate::page::PAGE_SIZE;
use crate::wal::Lsn;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One published point-in-time image of the database: every page either
/// appears in `overlay` (modified since the last checkpoint, committed at
/// or before `version`) or is identical to its on-disk image.
#[derive(Debug)]
pub(crate) struct Snapshot {
    /// Commit LSN this snapshot corresponds to (0 = freshly opened store).
    pub(crate) version: Lsn,
    /// Committed images of pages dirtied since the last checkpoint.
    pub(crate) overlay: HashMap<PageKey, Arc<[u8]>>,
    /// Per-file page counts at publication time; hides pages allocated by
    /// later transactions from scans.
    pub(crate) page_counts: HashMap<FileId, u32>,
}

impl Snapshot {
    /// The empty snapshot of a store with no published commits.
    pub(crate) fn empty() -> Snapshot {
        Snapshot {
            version: 0,
            overlay: HashMap::new(),
            page_counts: HashMap::new(),
        }
    }
}

netmark_model::stats! {
    /// Counters describing MVCC publication and read-view activity,
    /// surfaced through `Database::mvcc_stats` and up into HTTP stats.
    /// Across databases the lifetime counters sum and the gauges take the
    /// max: summing instantaneous readings from independent engines
    /// fabricates a value no engine ever reported.
    pub struct MvccStats => "mvcc" {
        /// Version (commit LSN) of the currently published snapshot.
        version: u64 = gauge("version"),
        /// Read views currently pinned.
        live_views: u64 = gauge("live-views"),
        /// Read views opened since the database was opened.
        views_opened: u64 = sum("views-opened"),
        /// Views evicted by checkpoints after exceeding `max_view_lag`.
        views_evicted: u64 = sum("views-evicted"),
        /// Snapshot publications (one per commit, DDL, and checkpoint).
        publishes: u64 = sum("publishes"),
        /// Pages in the current snapshot's copy-on-write overlay.
        overlay_pages: u64 = gauge("overlay-pages"),
        /// Bytes held by the current overlay's page images.
        overlay_bytes: u64 = gauge("overlay-bytes"),
    }
    /// The lifetime counters, recorded by readers, commits and
    /// checkpoints (the gauges are read off the published snapshot).
    pub(crate) struct MvccCounters => atomic;
}

/// Resolves page images for one pinned read view. Never installs buffer
/// frames or takes a page latch; see the module docs for the three-level
/// resolution order and its correctness argument.
pub(crate) struct PageSource {
    pub(crate) snap: Arc<Snapshot>,
    pub(crate) pool: Arc<BufferPool>,
    /// Set by a checkpoint that reclaimed disk images this view depends on.
    pub(crate) evicted: Arc<AtomicBool>,
}

impl PageRead for PageSource {
    /// Pages in `file` as of the snapshot (0 for unknown files).
    fn page_count(&self, file: FileId) -> u32 {
        self.snap.page_counts.get(&file).copied().unwrap_or(0)
    }

    /// Runs `f` over the committed image of `(file, page_no)` as of the
    /// snapshot.
    fn with_page<R>(
        &self,
        file: FileId,
        page_no: u32,
        f: impl FnOnce(&[u8]) -> Result<R>,
    ) -> Result<R> {
        if let Some(img) = self.snap.overlay.get(&(file, page_no)) {
            return f(img);
        }
        let bytes = match self.pool.read_committed(file, page_no) {
            Some(b) => b,
            None => {
                let mut buf = vec![0u8; PAGE_SIZE].into_boxed_slice();
                self.pool
                    .file_manager()
                    .read_page(file, page_no, &mut buf)?;
                buf
            }
        };
        // Eviction check AFTER the read: a checkpoint sets the flag before
        // flushing any page, so bytes read under a clear flag predate the
        // flush and are still the image this view expects. (Clean pool
        // frames can also only turn too-new via a checkpoint flush.)
        if self.evicted.load(Ordering::SeqCst) {
            return Err(StoreError::ViewEvicted);
        }
        f(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mvcc_stats_merge_sums_counters_and_maxes_gauges() {
        let a = MvccStats {
            version: 40,
            live_views: 2,
            views_opened: 100,
            views_evicted: 3,
            publishes: 50,
            overlay_pages: 8,
            overlay_bytes: 65536,
        };
        let b = MvccStats {
            version: 25,
            live_views: 5,
            views_opened: 10,
            views_evicted: 1,
            publishes: 7,
            overlay_pages: 12,
            overlay_bytes: 4096,
        };
        let mut merged = a;
        merged.merge(&b);
        // Lifetime counters sum…
        assert_eq!(merged.views_opened, 110);
        assert_eq!(merged.views_evicted, 4);
        assert_eq!(merged.publishes, 57);
        // …gauges take the max, never the sum.
        assert_eq!(merged.version, 40);
        assert_eq!(merged.live_views, 5);
        assert_eq!(merged.overlay_pages, 12);
        assert_eq!(merged.overlay_bytes, 65536);
        // Merge order must not matter.
        let mut other = b;
        other.merge(&a);
        assert_eq!(merged, other);
    }
}
