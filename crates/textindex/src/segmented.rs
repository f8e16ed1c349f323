//! The segmented, snapshot-isolated index: the writer facade over
//! memtable + segment chain + published snapshot + compaction + persistence.
//!
//! Concurrency contract:
//! - **Readers** call [`SegmentedIndex::snapshot`] (an `Arc` clone under a
//!   read lock) and evaluate against the returned [`IndexSnapshot`]. They
//!   never wait for ingest: a publication holds the lock only for a
//!   pointer swap.
//! - **Writers** (`add` / `remove` / `commit` / `save`) serialize on one
//!   internal mutex; NETMARK additionally serializes ingest operations, so
//!   this lock is uncontended in practice.
//! - **Compaction** runs concurrently with both: it merges immutable
//!   segments outside the writer lock and swaps the result in under it.
//!
//! Persistence is incremental: each sealed segment flushes to its own
//! `seg-<id>.seg` file exactly once, and a small `MANIFEST` (atomically
//! replaced via tmp+rename) names the live segments, the tombstone set and
//! the id allocator. `save()` therefore costs O(newly sealed data), not
//! O(total index).

use crate::compact::{merge, plan, CompactionPolicy, Compactor, Signal};
use crate::postings::{get, put};
use crate::segment::{segment_of, MemTable, Placement, Segment};
use crate::snapshot::IndexSnapshot;
use crate::TextQuery;
use std::collections::HashSet;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

const MANIFEST_MAGIC: &[u8; 8] = b"NMTXMAN1";
const MANIFEST_NAME: &str = "MANIFEST";

fn segment_file(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("seg-{id:016x}.seg"))
}

/// What one [`SegmentedIndex::save`] call actually did — the incremental
/// persistence contract is asserted against these numbers in the bench
/// harness.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SaveReport {
    /// Segments newly flushed to disk by this call.
    pub segments_written: usize,
    /// Stale segment files (compacted away) deleted by this call.
    pub segments_deleted: usize,
    /// Bytes written for new segment files (manifest excluded).
    pub bytes_written: usize,
    /// Live segments named by the manifest after the call.
    pub total_segments: usize,
}

netmark_model::stats! {
    /// Point-in-time counters and gauges for `/xdb/stats`. Every field is
    /// extensive — shard indexes describe disjoint state — so a merge sums
    /// them all; the gauges among them are levels, which a `since` keeps.
    pub struct IndexStats => "index" {
        /// Live (non-tombstoned) documents.
        docs: u64 = level("docs"),
        /// Distinct terms across segments.
        terms: u64 = level("terms"),
        /// Stored postings (tombstoned ones included until purged).
        postings: u64 = level("postings"),
        /// Compressed posting bytes.
        bytes: u64 = level("postings-bytes"),
        /// Sealed segments in the live chain.
        segments: u64 = level("segments"),
        /// Outstanding tombstones awaiting physical purge.
        tombstones: u64 = level("tombstones"),
        /// Snapshot publications (commits + compaction swaps).
        commits: u64 = sum("commits"),
        /// Memtable seals (one per non-empty commit).
        seals: u64 = sum("seals"),
        /// Completed compaction passes.
        compactions: u64 = sum("compactions"),
        /// Input segments consumed by compaction merges.
        segments_merged: u64 = sum("segments-merged"),
        /// Postings physically reclaimed by compaction.
        postings_purged: u64 = sum("postings-purged"),
        /// Tombstoned ids physically reclaimed by compaction.
        ids_purged: u64 = sum("ids-purged"),
        /// `save()` calls.
        saves: u64 = sum("saves"),
        /// Segment files written across all saves.
        segments_written: u64 = sum("segments-written"),
    }
    /// The lifetime counters, recorded by writers and the compactor (the
    /// levels are read off the published snapshot instead).
    struct IndexCounters => atomic;
}

/// The decoded `MANIFEST`: which segments are live, the tombstones and the
/// segment-id allocator.
#[derive(Debug, PartialEq)]
struct Manifest {
    next_seg_id: u64,
    seg_ids: Vec<u64>,
    tombstones: HashSet<u64>,
}

impl Manifest {
    /// `NMTXMAN1`, the allocator, the live segment ids, then the sorted
    /// tombstones as delta varints.
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MANIFEST_MAGIC);
        put(&mut buf, self.next_seg_id);
        put(&mut buf, self.seg_ids.len() as u64);
        for &id in &self.seg_ids {
            put(&mut buf, id);
        }
        let mut tombs: Vec<u64> = self.tombstones.iter().copied().collect();
        tombs.sort_unstable();
        put(&mut buf, tombs.len() as u64);
        let mut prev = 0u64;
        for &id in &tombs {
            put(&mut buf, id - prev);
            prev = id;
        }
        buf
    }

    /// Inverse of [`Manifest::encode`]; `None` on corrupt input. Counts are
    /// bounded by the bytes left (every entry takes at least one), segment
    /// ids must be distinct, tombstones strictly ascend, and the input is
    /// consumed exactly.
    fn decode(buf: &[u8]) -> Option<Manifest> {
        if buf.get(..8)? != MANIFEST_MAGIC {
            return None;
        }
        let mut pos = 8usize;
        let next_seg_id = get(buf, &mut pos)?;
        let nsegs = usize::try_from(get(buf, &mut pos)?).ok()?;
        if nsegs > buf.len() - pos {
            return None;
        }
        let mut seg_ids = Vec::with_capacity(nsegs);
        for _ in 0..nsegs {
            seg_ids.push(get(buf, &mut pos)?);
        }
        if seg_ids.iter().collect::<HashSet<_>>().len() != nsegs {
            return None;
        }
        let ntombs = usize::try_from(get(buf, &mut pos)?).ok()?;
        if ntombs > buf.len() - pos {
            return None;
        }
        let mut tombstones = HashSet::with_capacity(ntombs);
        let mut prev = 0u64;
        for i in 0..ntombs {
            let gap = get(buf, &mut pos)?;
            if i > 0 && gap == 0 {
                return None;
            }
            prev = prev.checked_add(gap)?;
            tombstones.insert(prev);
        }
        if pos != buf.len() {
            return None;
        }
        Some(Manifest {
            next_seg_id,
            seg_ids,
            tombstones,
        })
    }
}

#[derive(Debug)]
struct WriterState {
    memtable: MemTable,
    segments: Vec<Arc<Segment>>,
    tombstones: Arc<HashSet<u64>>,
    /// Tombstones changed since the last publication.
    dirty: bool,
    next_seg_id: u64,
    /// Largest id ever indexed (adds must ascend across segments).
    last_doc_id: Option<u64>,
    /// Segment ids already flushed to their on-disk file.
    persisted: HashSet<u64>,
}

impl WriterState {
    fn contains(&self, id: u64) -> bool {
        if self.memtable.contains(id) {
            return true;
        }
        segment_of(&self.segments, id).is_some()
    }
}

/// A segmented, snapshot-isolated inverted index (see module docs).
#[derive(Debug)]
pub struct SegmentedIndex {
    writer: Mutex<WriterState>,
    /// Serializes compaction passes (plan → merge → swap) against each
    /// other; never held while merging under the writer lock.
    compaction: Mutex<()>,
    /// The published snapshot. Writers swap the pointer under the write
    /// lock; readers clone the `Arc` under the read lock.
    current: RwLock<Arc<IndexSnapshot>>,
    policy: CompactionPolicy,
    signal: Arc<Signal>,
    counters: IndexCounters,
}

impl Default for SegmentedIndex {
    fn default() -> SegmentedIndex {
        SegmentedIndex::new()
    }
}

impl SegmentedIndex {
    /// Empty index with the default compaction policy.
    pub fn new() -> SegmentedIndex {
        SegmentedIndex::with_policy(CompactionPolicy::default())
    }

    /// Empty index with an explicit compaction policy.
    pub fn with_policy(policy: CompactionPolicy) -> SegmentedIndex {
        SegmentedIndex::from_state(policy, Vec::new(), HashSet::new(), 0, HashSet::new())
    }

    fn from_state(
        policy: CompactionPolicy,
        segments: Vec<Arc<Segment>>,
        tombstones: HashSet<u64>,
        next_seg_id: u64,
        persisted: HashSet<u64>,
    ) -> SegmentedIndex {
        let last_doc_id = segments.iter().filter_map(|s| s.max_id()).max();
        let tombstones = Arc::new(tombstones);
        let snapshot = Arc::new(IndexSnapshot::new(segments.clone(), tombstones.clone()));
        SegmentedIndex {
            writer: Mutex::new(WriterState {
                memtable: MemTable::new(),
                segments,
                tombstones,
                dirty: false,
                next_seg_id,
                last_doc_id,
                persisted,
            }),
            compaction: Mutex::new(()),
            current: RwLock::new(snapshot),
            policy,
            signal: Arc::new(Signal::default()),
            counters: IndexCounters::default(),
        }
    }

    fn lock_writer(&self) -> MutexGuard<'_, WriterState> {
        self.writer.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn signal(&self) -> Arc<Signal> {
        self.signal.clone()
    }

    /// Spawns the background compaction thread for this index. Hold the
    /// returned handle for the index's lifetime; dropping it stops the
    /// thread.
    pub fn start_compactor(self: &Arc<Self>) -> Compactor {
        Compactor::spawn(self.clone())
    }

    /// Indexes `text` under `id`, placed at `placement`, in the active
    /// memtable. Ids must ascend across the whole index (the store's
    /// allocator guarantees this) and a context may not exceed its id;
    /// violations are reported as `false` and skipped. Not visible to
    /// snapshots until [`SegmentedIndex::commit`].
    pub fn add(&self, id: u64, placement: Placement, text: &str) -> bool {
        let mut st = self.lock_writer();
        if st.last_doc_id.is_some_and(|last| id <= last) {
            return false;
        }
        if !st.memtable.add(id, placement, text) {
            return false;
        }
        st.last_doc_id = Some(id);
        true
    }

    /// Tombstones `id` (memtable or sealed). Unknown / already-removed ids
    /// are reported as `false`. Visible to snapshots at the next commit.
    pub fn remove(&self, id: u64) -> bool {
        let mut st = self.lock_writer();
        if st.tombstones.contains(&id) || !st.contains(id) {
            return false;
        }
        Arc::make_mut(&mut st.tombstones).insert(id);
        st.dirty = true;
        true
    }

    /// Seals the memtable (if non-empty) into a new immutable segment and
    /// publishes a fresh snapshot covering all changes since the last
    /// commit. Returns `true` if a new snapshot was published.
    pub fn commit(&self) -> bool {
        let published = {
            let mut st = self.lock_writer();
            self.commit_locked(&mut st)
        };
        if published {
            // Wake the compactor outside the writer lock.
            self.signal.notify();
        }
        published
    }

    fn commit_locked(&self, st: &mut WriterState) -> bool {
        let mut changed = false;
        if !st.memtable.is_empty() {
            let id = st.next_seg_id;
            st.next_seg_id += 1;
            let seg = Arc::new(st.memtable.seal(id));
            st.segments.push(seg);
            self.counters.seals.fetch_add(1, Ordering::Relaxed);
            changed = true;
        }
        if st.dirty {
            st.dirty = false;
            changed = true;
        }
        if changed {
            self.publish_locked(st);
        }
        changed
    }

    fn publish_locked(&self, st: &WriterState) {
        self.counters.commits.fetch_add(1, Ordering::Relaxed);
        let snap = Arc::new(IndexSnapshot::new(
            st.segments.clone(),
            st.tombstones.clone(),
        ));
        // The guard is a temporary: the lock is released before the old
        // snapshot drops, so freeing it never stalls a reader.
        let old = std::mem::replace(
            &mut *self.current.write().unwrap_or_else(|e| e.into_inner()),
            snap,
        );
        drop(old);
    }

    /// The current published snapshot.
    pub fn snapshot(&self) -> Arc<IndexSnapshot> {
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Evaluates `query` against the current snapshot.
    pub fn execute(&self, query: &TextQuery) -> Vec<u64> {
        self.snapshot().execute(query)
    }

    /// BM25-ranked search against the current snapshot.
    pub fn search_bm25(&self, text: &str) -> Vec<(u64, f64)> {
        self.snapshot().search_bm25(text)
    }

    /// Live documents in the current snapshot (committed state only).
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// True when the current snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.snapshot().is_empty()
    }

    /// Distinct terms in the current snapshot.
    pub fn term_count(&self) -> usize {
        self.snapshot().term_count()
    }

    /// Compressed posting bytes in the current snapshot.
    pub fn byte_size(&self) -> usize {
        self.snapshot().byte_size()
    }

    /// Runs one compaction pass if the policy wants one. The merge runs
    /// outside the writer lock (inputs are immutable); only the final swap
    /// briefly takes it. Returns the number of segments merged, or `None`
    /// when the chain is in shape.
    pub fn compact_once(&self) -> Option<usize> {
        let _pass = self.compaction.lock().unwrap_or_else(|e| e.into_inner());
        let (window, inputs, tombstones, new_id) = {
            let mut st = self.lock_writer();
            let window = plan(&st.segments, &st.tombstones, &self.policy)?;
            let inputs: Vec<Arc<Segment>> = st.segments[window.clone()].to_vec();
            let tombstones = st.tombstones.clone();
            let new_id = st.next_seg_id;
            st.next_seg_id += 1;
            (window, inputs, tombstones, new_id)
        };
        let merged = merge(new_id, &inputs, &tombstones);
        {
            let mut st = self.lock_writer();
            // Commits only append behind the window and this pass holds the
            // compaction lock, so the window indices are still valid —
            // assert the identity match anyway.
            debug_assert!(st.segments[window.clone()]
                .iter()
                .zip(&inputs)
                .all(|(a, b)| Arc::ptr_eq(a, b)));
            for seg in &inputs {
                st.persisted.remove(&seg.id());
            }
            if !merged.purged_ids.is_empty() {
                let tombs = Arc::make_mut(&mut st.tombstones);
                for id in &merged.purged_ids {
                    tombs.remove(id);
                }
            }
            let replacement = if merged.segment.is_empty() {
                // Everything in the window was tombstoned: drop it outright.
                Vec::new()
            } else {
                vec![Arc::new(merged.segment)]
            };
            st.segments.splice(window.clone(), replacement);
            self.publish_locked(&st);
        }
        self.counters.compactions.fetch_add(1, Ordering::Relaxed);
        self.counters
            .segments_merged
            .fetch_add(inputs.len() as u64, Ordering::Relaxed);
        self.counters
            .postings_purged
            .fetch_add(merged.purged_postings as u64, Ordering::Relaxed);
        self.counters
            .ids_purged
            .fetch_add(merged.purged_ids.len() as u64, Ordering::Relaxed);
        Some(inputs.len())
    }

    /// Runs compaction passes until the policy is satisfied; returns the
    /// number of passes (foreground counterpart of the background thread,
    /// used by tests and maintenance paths).
    pub fn compact(&self) -> usize {
        let mut passes = 0;
        while self.compact_once().is_some() {
            passes += 1;
        }
        passes
    }

    /// Persists the index into directory `dir` incrementally: only segments
    /// sealed (or produced by compaction) since the last save are written;
    /// stale files are pruned; the manifest is atomically replaced last. A
    /// pending memtable is committed first so the on-disk state matches a
    /// published snapshot.
    pub fn save(&self, dir: &Path) -> std::io::Result<SaveReport> {
        let mut st = self.lock_writer();
        let sealed = self.commit_locked(&mut st);
        std::fs::create_dir_all(dir)?;
        let mut report = SaveReport {
            total_segments: st.segments.len(),
            ..SaveReport::default()
        };
        let live: HashSet<u64> = st.segments.iter().map(|s| s.id()).collect();
        for seg in &st.segments {
            let path = segment_file(dir, seg.id());
            // Skip only segments already on disk *at this path*: saving to
            // a fresh directory (or after someone deleted a segment file)
            // must still produce a complete, loadable index.
            if st.persisted.contains(&seg.id()) && path.exists() {
                continue;
            }
            let buf = seg.serialize();
            let tmp = path.with_extension("tmp");
            {
                let mut f = std::fs::File::create(&tmp)?;
                f.write_all(&buf)?;
                f.sync_data()?;
            }
            std::fs::rename(&tmp, &path)?;
            report.segments_written += 1;
            report.bytes_written += buf.len();
        }
        // Prune files for segments compacted away since the last save.
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(id) = name
                .strip_prefix("seg-")
                .and_then(|rest| rest.strip_suffix(".seg"))
                .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            else {
                continue;
            };
            if !live.contains(&id) {
                std::fs::remove_file(entry.path())?;
                report.segments_deleted += 1;
            }
        }
        let buf = Manifest {
            next_seg_id: st.next_seg_id,
            seg_ids: st.segments.iter().map(|s| s.id()).collect(),
            tombstones: (*st.tombstones).clone(),
        }
        .encode();
        let manifest = dir.join(MANIFEST_NAME);
        let tmp = manifest.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&buf)?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, &manifest)?;
        st.persisted = live;
        drop(st);
        if sealed {
            self.signal.notify();
        }
        self.counters.saves.fetch_add(1, Ordering::Relaxed);
        self.counters
            .segments_written
            .fetch_add(report.segments_written as u64, Ordering::Relaxed);
        Ok(report)
    }

    /// Loads an index previously written by [`SegmentedIndex::save`] with
    /// the default policy. `None` for missing or corrupt state (callers
    /// rebuild from the store).
    pub fn load(dir: &Path) -> Option<SegmentedIndex> {
        SegmentedIndex::load_with(dir, CompactionPolicy::default())
    }

    /// [`SegmentedIndex::load`] with an explicit compaction policy.
    pub fn load_with(dir: &Path, policy: CompactionPolicy) -> Option<SegmentedIndex> {
        let manifest = Manifest::decode(&std::fs::read(dir.join(MANIFEST_NAME)).ok()?)?;
        let mut segments = Vec::with_capacity(manifest.seg_ids.len());
        let mut last_max: Option<u64> = None;
        for id in &manifest.seg_ids {
            if *id >= manifest.next_seg_id {
                return None;
            }
            let bytes = std::fs::read(segment_file(dir, *id)).ok()?;
            let seg = Segment::deserialize(&bytes)?;
            if seg.id() != *id {
                return None;
            }
            // The chain invariant: disjoint, ascending id ranges.
            if let Some(min) = seg.min_id() {
                if last_max.is_some_and(|m| min <= m) {
                    return None;
                }
                last_max = seg.max_id();
            }
            segments.push(Arc::new(seg));
        }
        // Every tombstone names an id of some live segment.
        if !manifest
            .tombstones
            .iter()
            .all(|&id| segment_of(&segments, id).is_some())
        {
            return None;
        }
        let persisted: HashSet<u64> = manifest.seg_ids.into_iter().collect();
        Some(SegmentedIndex::from_state(
            policy,
            segments,
            manifest.tombstones,
            manifest.next_seg_id,
            persisted,
        ))
    }

    /// Counters and gauges for `/xdb/stats`.
    pub fn stats(&self) -> IndexStats {
        let snap = self.snapshot();
        IndexStats {
            docs: snap.len() as u64,
            terms: snap.term_count() as u64,
            postings: snap.posting_count() as u64,
            bytes: snap.byte_size() as u64,
            segments: snap.segment_count() as u64,
            tombstones: snap.tombstones().len() as u64,
            ..self.counters.snapshot()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The placement of tests that do not look at placements.
    const P: Placement = Placement {
        doc: 0,
        context: None,
    };

    fn seeded() -> SegmentedIndex {
        let ix = SegmentedIndex::new();
        ix.add(1, P, "The space shuttle program");
        ix.add(2, P, "Shuttle engine anomaly report");
        ix.commit();
        ix.add(3, P, "Budget overview for the technology gap");
        ix.add(4, P, "The technology gap is shrinking fast");
        ix.commit();
        ix
    }

    #[test]
    fn commit_publishes_snapshot_round_trip() {
        let ix = SegmentedIndex::new();
        assert_eq!(ix.snapshot().len(), 0);
        ix.add(1, P, "alpha");
        ix.add(2, P, "beta");
        assert_eq!(ix.snapshot().len(), 0, "unpublished until commit");
        assert!(ix.commit());
        assert_eq!(ix.snapshot().len(), 2);
        ix.remove(2);
        assert!(ix.commit());
        assert_eq!(ix.snapshot().len(), 1);
        assert!(!ix.commit(), "nothing new to publish");
    }

    #[test]
    fn concurrent_readers_see_only_published_snapshots() {
        // Each commit publishes exactly one more document, so readers must
        // only ever observe states with 1..=64 docs, never a torn mix, and
        // never go backwards.
        let ix = SegmentedIndex::new();
        ix.add(1, P, "w1 common");
        ix.commit();
        let stop = std::sync::atomic::AtomicBool::new(false);
        let start = std::sync::Barrier::new(5);
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        let mut last = 0;
                        loop {
                            // Read the flag first: the load after it sees
                            // every commit the writer made before setting it.
                            let done = stop.load(Ordering::SeqCst);
                            let s = ix.snapshot();
                            let n = s.len();
                            assert!((1..=64).contains(&n), "torn snapshot: {n} docs");
                            // Internal consistency: All returns exactly len ids.
                            assert_eq!(s.execute(&TextQuery::All).len(), n);
                            assert!(n >= last, "snapshot went backwards");
                            last = n;
                            if done {
                                return last;
                            }
                        }
                    })
                })
                .collect();
            start.wait();
            for id in 2..=64u64 {
                ix.add(id, P, &format!("w{id} common"));
                ix.commit();
            }
            stop.store(true, Ordering::SeqCst);
            for r in readers {
                assert_eq!(r.join().expect("reader panicked"), 64);
            }
        });
    }

    #[test]
    fn matches_reference_index_across_commits() {
        let ix = seeded();
        let mut reference = crate::InvertedIndex::new();
        reference.add(1, "The space shuttle program");
        reference.add(2, "Shuttle engine anomaly report");
        reference.add(3, "Budget overview for the technology gap");
        reference.add(4, "The technology gap is shrinking fast");
        assert_eq!(ix.snapshot().segment_count(), 2);
        for q in [
            TextQuery::keywords("shuttle"),
            TextQuery::keywords("technology gap"),
            TextQuery::phrase("the technology gap is"),
            TextQuery::Prefix("shut".into()),
            TextQuery::All,
            TextQuery::Not(
                Box::new(TextQuery::All),
                Box::new(TextQuery::Term("the".into())),
            ),
        ] {
            assert_eq!(ix.execute(&q), reference.execute(&q), "{q:?}");
        }
        assert_eq!(ix.len(), reference.len());
        assert_eq!(ix.term_count(), reference.term_count());
        assert_eq!(ix.search_bm25("shuttle"), reference.search_bm25("shuttle"));
    }

    #[test]
    fn uncommitted_adds_invisible_until_commit() {
        let ix = SegmentedIndex::new();
        ix.add(1, P, "alpha");
        assert!(ix.is_empty(), "memtable invisible before commit");
        assert!(ix.commit());
        assert!(!ix.commit(), "nothing new to publish");
        assert_eq!(ix.len(), 1);
    }

    #[test]
    fn remove_requires_known_id_and_commits() {
        let ix = seeded();
        assert!(!ix.remove(99), "unknown id rejected");
        assert!(ix.remove(2));
        assert!(!ix.remove(2), "double remove rejected");
        assert_eq!(ix.len(), 4, "tombstone invisible before commit");
        assert!(ix.commit());
        assert_eq!(ix.len(), 3);
        assert_eq!(ix.execute(&TextQuery::keywords("shuttle")), vec![1]);
        // Removing an id still in the memtable works too.
        ix.add(10, P, "transient entry");
        assert!(ix.remove(10));
        ix.commit();
        assert_eq!(ix.len(), 3);
    }

    #[test]
    fn out_of_order_add_rejected_across_segments() {
        let ix = seeded();
        assert!(!ix.add(2, P, "stale id"), "id inside sealed range rejected");
        assert!(ix.add(10, P, "fresh id"));
    }

    #[test]
    fn compaction_merges_runs_and_purges_tombstones() {
        let ix = SegmentedIndex::with_policy(CompactionPolicy {
            small_postings: 1_000_000, // every segment is "small"
            max_segments: 4,
            tombstone_percent: 25,
        });
        for batch in 0..6u64 {
            for i in 0..10u64 {
                ix.add(batch * 100 + i + 1, P, "orbit telemetry frame");
            }
            ix.commit();
        }
        assert_eq!(ix.snapshot().segment_count(), 6);
        let before_bytes = ix.byte_size();
        let all: Vec<u64> = ix.execute(&TextQuery::All);
        assert_eq!(all.len(), 60);
        for id in all.iter().take(30) {
            assert!(ix.remove(*id));
        }
        ix.commit();
        let passes = ix.compact();
        assert!(passes >= 1);
        let snap = ix.snapshot();
        assert_eq!(snap.segment_count(), 1, "runs merged");
        assert_eq!(snap.len(), 30);
        assert_eq!(
            snap.tombstones().len(),
            0,
            "purged tombstones leave the set"
        );
        assert!(
            ix.byte_size() < before_bytes,
            "byte_size shrinks after purge: {} vs {}",
            ix.byte_size(),
            before_bytes
        );
        assert_eq!(ix.execute(&TextQuery::All), all[30..].to_vec());
        let stats = ix.stats();
        assert!(stats.compactions >= 1);
        assert_eq!(stats.ids_purged, 30);
    }

    #[test]
    fn compaction_drops_fully_dead_segments() {
        let ix = SegmentedIndex::with_policy(CompactionPolicy {
            small_postings: 1,
            max_segments: 8,
            tombstone_percent: 10,
        });
        for i in 1..=8u64 {
            ix.add(i, P, "ephemeral data");
        }
        ix.commit();
        for i in 1..=8u64 {
            ix.remove(i);
        }
        ix.commit();
        ix.compact();
        let snap = ix.snapshot();
        assert_eq!(snap.segment_count(), 0);
        assert_eq!(snap.len(), 0);
        assert!(snap.tombstones().is_empty());
    }

    #[test]
    fn save_is_incremental_and_load_round_trips() {
        let dir = std::env::temp_dir().join(format!("netmark-segidx-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ix = seeded();
        ix.remove(3);
        let r1 = ix.save(&dir).unwrap();
        assert_eq!(r1.segments_written, 2, "both segments flushed");
        assert_eq!(r1.total_segments, 2);
        // No changes → nothing rewritten.
        let r2 = ix.save(&dir).unwrap();
        assert_eq!(r2.segments_written, 0);
        assert_eq!(r2.bytes_written, 0);
        // One new batch → exactly one new segment file.
        ix.add(5, P, "Fresh telemetry downlink");
        ix.commit();
        let r3 = ix.save(&dir).unwrap();
        assert_eq!(r3.segments_written, 1);
        assert!(r3.bytes_written < r1.bytes_written);
        let back = SegmentedIndex::load(&dir).expect("load");
        assert_eq!(back.len(), ix.len());
        assert_eq!(back.snapshot().segment_count(), 3);
        for q in [
            TextQuery::keywords("technology gap"),
            TextQuery::keywords("telemetry"),
            TextQuery::All,
        ] {
            assert_eq!(back.execute(&q), ix.execute(&q), "{q:?}");
        }
        // Loaded state is fully persisted: immediate save is a no-op.
        let r4 = back.save(&dir).unwrap();
        assert_eq!(r4.segments_written, 0);
        // Adds continue after the persisted id range.
        assert!(!back.add(5, P, "dup"));
        assert!(back.add(6, P, "continues"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_prunes_files_for_compacted_segments() {
        let dir = std::env::temp_dir().join(format!("netmark-segidx-prune-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ix = SegmentedIndex::with_policy(CompactionPolicy {
            small_postings: 1_000_000,
            max_segments: 8,
            tombstone_percent: 25,
        });
        for batch in 0..3u64 {
            ix.add(batch * 10 + 1, P, "alpha beta");
            ix.commit();
        }
        let r1 = ix.save(&dir).unwrap();
        assert_eq!(r1.segments_written, 3);
        assert!(ix.compact() >= 1);
        let r2 = ix.save(&dir).unwrap();
        assert_eq!(r2.segments_written, 1, "merged segment is new");
        assert_eq!(r2.segments_deleted, 3, "inputs pruned");
        assert_eq!(r2.total_segments, 1);
        let back = SegmentedIndex::load(&dir).expect("load after prune");
        assert_eq!(back.len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_or_missing_state_loads_as_none() {
        let dir = std::env::temp_dir().join(format!("netmark-segidx-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(SegmentedIndex::load(&dir).is_none(), "missing dir");
        let ix = seeded();
        ix.save(&dir).unwrap();
        std::fs::write(dir.join(MANIFEST_NAME), b"garbage").unwrap();
        assert!(SegmentedIndex::load(&dir).is_none(), "corrupt manifest");
        ix.save(&dir).unwrap();
        assert!(SegmentedIndex::load(&dir).is_some(), "manifest rewritten");
        // A manifest naming a missing segment file fails cleanly.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let p = entry.unwrap().path();
            if p.extension().is_some_and(|e| e == "seg") {
                std::fs::remove_file(p).unwrap();
            }
        }
        assert!(SegmentedIndex::load(&dir).is_none(), "missing segment file");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn background_compactor_converges() {
        let ix = Arc::new(SegmentedIndex::with_policy(CompactionPolicy {
            small_postings: 1_000_000,
            max_segments: 2,
            tombstone_percent: 25,
        }));
        let _compactor = ix.start_compactor();
        for batch in 0..10u64 {
            for i in 0..5u64 {
                ix.add(batch * 10 + i + 1, P, "steady ingest stream");
            }
            ix.commit();
        }
        // The compactor runs async; wait for it to settle the chain.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let n = ix.snapshot().segment_count();
            if n <= 2 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "compactor failed to converge: {n} segments"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert_eq!(ix.len(), 50);
    }

    #[test]
    fn snapshot_resolves_placements_of_live_ids() {
        let ix = SegmentedIndex::new();
        let at = |doc, ctx| Placement { doc, context: ctx };
        ix.add(1, at(1, Some(1)), "Budget");
        ix.add(2, at(1, Some(1)), "two million dollars");
        ix.commit();
        ix.add(3, at(2, None), "million orphans");
        ix.commit();
        let snap = ix.snapshot();
        assert_eq!(snap.placement(2), Some(at(1, Some(1))));
        assert_eq!(snap.placement(3), Some(at(2, None)));
        assert_eq!(snap.placement(9), None, "never indexed");
        let million = TextQuery::Term("million".into());
        assert_eq!(
            snap.execute_placed(&million),
            vec![(2, at(1, Some(1))), (3, at(2, None))]
        );
        let placed: Vec<(u64, f64)> = snap
            .search_bm25_placed("million")
            .into_iter()
            .map(|(id, p, s)| {
                assert_eq!(Some(p), snap.placement(id));
                (id, s)
            })
            .collect();
        assert_eq!(placed, snap.search_bm25("million"));
        ix.remove(2);
        ix.commit();
        let snap = ix.snapshot();
        assert_eq!(snap.placement(2), None, "tombstoned");
        assert_eq!(snap.execute_placed(&million), vec![(3, at(2, None))]);
    }

    #[test]
    fn corrupt_manifests_never_panic() {
        let dir = std::env::temp_dir().join(format!("netmark-segidx-man-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ix = seeded();
        ix.remove(2);
        ix.remove(4);
        ix.save(&dir).unwrap();
        let path = dir.join(MANIFEST_NAME);
        let good = std::fs::read(&path).unwrap();
        let expect = Manifest::decode(&good).expect("a saved manifest decodes");
        assert_eq!(expect.encode(), good);
        let mut variants: Vec<Vec<u8>> = (0..good.len()).map(|cut| good[..cut].to_vec()).collect();
        for i in 0..good.len() {
            for mask in [0x01u8, 0x40, 0x80, 0xff] {
                let mut bad = good.clone();
                bad[i] ^= mask;
                variants.push(bad);
            }
        }
        for bad in &variants {
            if let Some(m) = Manifest::decode(bad) {
                // Well-formed: it re-encodes to the bytes it came from.
                assert_eq!(&m.encode(), bad);
            }
            std::fs::write(&path, bad).unwrap();
            if let Some(back) = SegmentedIndex::load(&dir) {
                let snap = back.snapshot();
                assert_eq!(snap.execute(&TextQuery::All).len(), snap.len());
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
