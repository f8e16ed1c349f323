//! The staged parallel ingestion pipeline.
//!
//! Bulk ingest runs as two stages connected by a bounded queue:
//!
//! 1. **Upmark** — N worker threads pull raw files from an input queue and
//!    parse them into [`Document`]s concurrently. Upmarking is pure CPU
//!    (format detection + parsing) and needs no store access, so it
//!    parallelizes freely.
//! 2. **Write** — a single writer thread drains documents into batches and
//!    commits each batch in one store transaction via
//!    [`crate::NetMark::ingest_batch`], so one WAL commit (and at most one fsync,
//!    amortized further by the group-commit window) covers up to
//!    [`PipelineConfig::batch_docs`] documents. Each committed batch also
//!    seals one text-index memtable run, so the segmented index grows one
//!    segment per batch (later folded together by background compaction),
//!    and queries running during the bulk load never block on a lock.
//!
//! The queue is bounded: when the writer falls behind, upmark workers block
//! instead of buffering unboundedly (backpressure), which caps memory at
//! roughly `queue_capacity` parsed documents.
//!
//! Failures are isolated per file: [`commit_batch`] retries a batch that
//! fails to commit one document at a time, and only the offending
//! documents are dropped (counted in [`IngestStats::errors`]). The HTTP
//! PUT path drains its own queue through the same
//! [`BoundedQueue::pop_batch`] and [`commit_batch`].

use crate::backend::XdbBackend;
use crate::error::Result;
use crate::metrics::IngestStats;
use crate::store::IngestReport;
use netmark_docformats::upmark;
use netmark_model::Document;
use netmark_relstore::WalStats;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// A raw file awaiting ingestion.
#[derive(Debug, Clone)]
pub struct RawFile {
    /// File name (drives format detection).
    pub name: String,
    /// File content.
    pub content: String,
}

impl RawFile {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, content: impl Into<String>) -> RawFile {
        RawFile {
            name: name.into(),
            content: content.into(),
        }
    }
}

/// Tuning knobs for [`ingest_files`].
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Upmark worker threads (stage 1).
    pub workers: usize,
    /// Maximum documents per store transaction (stage 2).
    pub batch_docs: usize,
    /// Bound on each inter-stage queue (backpressure).
    pub queue_capacity: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            batch_docs: 64,
            queue_capacity: 256,
        }
    }
}

/// What one pipeline run did, per stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineStats {
    /// Files offered to the pipeline.
    pub files_in: usize,
    /// Ingest counters accumulated by this run (documents, nodes, batches,
    /// errors, per-stage wall time).
    pub ingest: IngestStats,
    /// WAL commits/fsyncs issued by this run.
    pub wal: WalStats,
    /// End-to-end wall time, including the final durability sync.
    pub elapsed: Duration,
}

impl PipelineStats {
    /// Documents committed per second of wall time.
    pub fn docs_per_sec(&self) -> f64 {
        self.ingest.docs_per_sec(self.elapsed)
    }

    /// Nodes committed per second of wall time.
    pub fn nodes_per_sec(&self) -> f64 {
        self.ingest.nodes_per_sec(self.elapsed)
    }

    /// Fsyncs avoided by group commit during this run.
    pub fn fsyncs_saved(&self) -> u64 {
        self.wal.fsyncs_saved()
    }
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
    max_depth: usize,
}

/// A blocking bounded MPMC queue (Mutex + two Condvars). `push` blocks when
/// full, `pop` blocks when empty; `close` wakes everyone and makes further
/// pushes fail and pops drain-then-`None`. Tracks its depth high-water mark.
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
                max_depth: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Blocks until there is room, then enqueues. Returns `false` (dropping
    /// `item`) if the queue was closed.
    pub fn push(&self, item: T) -> bool {
        let mut st = self.state.lock();
        while st.items.len() >= self.capacity && !st.closed {
            self.not_full.wait(&mut st);
        }
        if st.closed {
            return false;
        }
        st.items.push_back(item);
        let depth = st.items.len();
        st.max_depth = st.max_depth.max(depth);
        drop(st);
        self.not_empty.notify_one();
        true
    }

    /// Blocks until an item is available or the queue is closed and
    /// drained.
    pub fn pop(&self) -> Option<T> {
        let mut st = self.state.lock();
        loop {
            if let Some(item) = st.items.pop_front() {
                drop(st);
                self.not_full.notify_one();
                return Some(item);
            }
            if st.closed {
                return None;
            }
            self.not_empty.wait(&mut st);
        }
    }

    /// Blocks for one item, then adds whatever has already queued up, to
    /// at most `max` items (group-commit-style adaptive batch size: large
    /// under load, small when idle). `None` once the queue is closed and
    /// drained. Both ingest writers drain through this.
    pub fn pop_batch(&self, max: usize) -> Option<Vec<T>> {
        let mut batch = vec![self.pop()?];
        while batch.len() < max {
            match self.try_pop() {
                Some(item) => batch.push(item),
                None => break,
            }
        }
        Some(batch)
    }

    /// Dequeues without blocking (`None` when currently empty).
    fn try_pop(&self) -> Option<T> {
        let item = self.state.lock().items.pop_front();
        if item.is_some() {
            self.not_full.notify_one();
        }
        item
    }

    /// Closes the queue: pending items still drain, new pushes fail.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Current depth.
    fn len(&self) -> usize {
        self.state.lock().items.len()
    }

    /// Deepest the queue has ever been.
    pub fn max_depth(&self) -> usize {
        self.state.lock().max_depth
    }
}

/// Runs `files` through the staged pipeline into `nm`. Returns per-stage
/// stats for the run; per-file failures are counted, not propagated. Ends
/// with a WAL sync so every reported document is durable.
pub fn ingest_files(
    nm: &dyn XdbBackend,
    files: Vec<RawFile>,
    cfg: &PipelineConfig,
) -> Result<PipelineStats> {
    let started = Instant::now();
    let files_in = files.len();
    let metrics_before = nm.ingest_metrics().snapshot();
    let wal_before = nm.wal_stats();

    let input: BoundedQueue<RawFile> = BoundedQueue::new(cfg.queue_capacity);
    let docs: BoundedQueue<Document> = BoundedQueue::new(cfg.queue_capacity);
    let workers = cfg.workers.max(1);

    std::thread::scope(|scope| {
        let worker_handles: Vec<_> = (0..workers)
            .map(|_| {
                let input = &input;
                let docs = &docs;
                scope.spawn(move || {
                    while let Some(file) = input.pop() {
                        let t0 = Instant::now();
                        let doc = upmark(&file.name, &file.content);
                        nm.ingest_metrics().record_upmark(t0.elapsed());
                        if !docs.push(doc) {
                            break;
                        }
                        nm.ingest_metrics().observe_queue_depth(docs.len());
                    }
                })
            })
            .collect();

        let writer = {
            let docs = &docs;
            scope.spawn(move || {
                while let Some(batch) = docs.pop_batch(cfg.batch_docs) {
                    commit_batch(nm, &batch);
                }
            })
        };

        for file in files {
            if !input.push(file) {
                break;
            }
        }
        input.close();
        for h in worker_handles {
            let _ = h.join();
        }
        docs.close();
        let _ = writer.join();
    });

    // Every document the stats report as ingested is durable.
    nm.sync_wal()?;

    Ok(PipelineStats {
        files_in,
        ingest: nm.ingest_metrics().snapshot().since(&metrics_before),
        wal: nm.wal_stats().since(&wal_before),
        elapsed: started.elapsed(),
    })
}

/// Commits `docs` in one batch, falling back to one commit per document
/// if the batch transaction fails, so one bad document cannot fail its
/// batchmates. Documents that still fail are counted in
/// [`IngestStats::errors`]. Returns one outcome per document, in input
/// order. Both ingest writers commit through this.
pub fn commit_batch(nm: &dyn XdbBackend, docs: &[Document]) -> Vec<Result<IngestReport>> {
    match nm.ingest_batch(docs) {
        Ok(reports) => reports.into_iter().map(Ok).collect(),
        Err(_) => docs
            .iter()
            .map(|doc| {
                let outcome = nm.insert_document(doc);
                if outcome.is_err() {
                    nm.ingest_metrics().record_error();
                }
                outcome
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetMark;
    use std::sync::Arc;

    #[test]
    fn pipeline_seals_one_run_per_batch() {
        let dir = std::env::temp_dir().join(format!("netmark-pipe-seg-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Background compaction off so the seal counter maps 1:1 to runs.
        let opts = crate::NetMarkOptions {
            background_compaction: false,
            ..Default::default()
        };
        let nm = NetMark::open_with(&dir, opts).unwrap();
        let files: Vec<RawFile> = (0..20)
            .map(|i| RawFile::new(format!("f{i}.txt"), format!("# Sec{i}\nbody {i}\n")))
            .collect();
        let cfg = PipelineConfig {
            workers: 2,
            batch_docs: 8,
            queue_capacity: 8,
        };
        let stats = ingest_files(&nm, files, &cfg).unwrap();
        assert_eq!(stats.ingest.documents, 20);
        let ix = nm.stats().unwrap().index;
        assert_eq!(
            ix.seals, stats.ingest.batches,
            "one sealed memtable run per committed batch"
        );
        assert!(ix.segments >= 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn queue_bounds_and_drains() {
        let q: BoundedQueue<u32> = BoundedQueue::new(2);
        assert!(q.push(1));
        assert!(q.push(2));
        assert_eq!(q.len(), 2);
        assert_eq!(q.try_pop(), Some(1));
        q.close();
        assert!(!q.push(9), "push after close fails");
        assert_eq!(q.pop(), Some(2), "close still drains");
        assert_eq!(q.pop(), None);
        assert_eq!(q.max_depth(), 2);
    }

    #[test]
    fn push_blocks_until_pop() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1));
        assert!(q.push(1));
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || q2.push(2));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.len(), 1, "second push is blocked on capacity");
        assert_eq!(q.pop(), Some(1));
        assert!(t.join().unwrap());
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn concurrent_producers_consumers_deliver_everything() {
        let q: Arc<BoundedQueue<u64>> = Arc::new(BoundedQueue::new(4));
        let producers: Vec<_> = (0..3u64)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        assert!(q.push(p * 1000 + i));
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let mut expect: Vec<u64> = (0..3u64)
            .flat_map(|p| (0..100u64).map(move |i| p * 1000 + i))
            .collect();
        expect.sort_unstable();
        assert_eq!(all, expect, "every item delivered exactly once");
        assert!(q.max_depth() <= 4, "bound respected");
    }
}
