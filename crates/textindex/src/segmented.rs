//! The segmented, snapshot-isolated index: the writer facade over
//! memtable + segment chain + published snapshot + compaction + persistence.
//!
//! Concurrency contract:
//! - **Readers** call [`SegmentedIndex::snapshot`] (an `Arc` clone under a
//!   read lock) and look terms up in the returned [`IndexSnapshot`]. They
//!   never wait for ingest: a publication holds the lock only for a
//!   pointer swap.
//! - **Writers** (`add` / `remove` / `commit` / `save`) serialize on one
//!   internal mutex; NETMARK additionally serializes ingest operations, so
//!   this lock is uncontended in practice.
//! - **A commit is two steps**, so a caller can publish inside a critical
//!   section of its own: [`Staged::build`] seals the memtable and builds
//!   the snapshot, BM25 statistics included; [`Built::install`] only
//!   stores the pointer. The writer lock is held from
//!   [`SegmentedIndex::stage`] to install.
//! - **Compaction** runs concurrently with both: it merges immutable
//!   segments outside the writer lock and swaps the result in under it,
//!   with the same live content.
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
        self.stage().add(id, placement, text)
    }

    /// Tombstones `id` (memtable or sealed). Unknown / already-removed ids
    /// are reported as `false`. Visible to snapshots at the next commit.
    pub fn remove(&self, id: u64) -> bool {
        self.stage().remove(id)
    }

    /// Seals the memtable (if non-empty) into a new immutable segment and
    /// publishes a fresh snapshot covering all changes since the last
    /// commit. Returns `true` if a new snapshot was published.
    pub fn commit(&self) -> bool {
        self.stage().build().install().is_some()
    }

    /// Takes the writer lock, which the returned [`Staged`] and the
    /// [`Built`] it becomes hold until installed or dropped.
    pub fn stage(&self) -> Staged<'_> {
        Staged {
            index: self,
            st: self.lock_writer(),
        }
    }

    /// Publishes `snap`; returns the snapshot it replaced.
    fn swap(&self, snap: Arc<IndexSnapshot>) -> Arc<IndexSnapshot> {
        self.counters.commits.fetch_add(1, Ordering::Relaxed);
        std::mem::replace(
            &mut *self.current.write().unwrap_or_else(|e| e.into_inner()),
            snap,
        )
    }

    /// The current published snapshot.
    pub fn snapshot(&self) -> Arc<IndexSnapshot> {
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Live documents in the current snapshot (committed state only).
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// True when the current snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.snapshot().is_empty()
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
        let _replaced = {
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
            let snap = IndexSnapshot::new(st.segments.clone(), st.tombstones.clone());
            self.swap(Arc::new(snap))
        };
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
    /// stale files are pruned; the manifest is atomically replaced last.
    /// Pending changes are committed first, and the files hold the
    /// published snapshot.
    pub fn save(&self, dir: &Path) -> std::io::Result<SaveReport> {
        self.commit();
        let mut st = self.lock_writer();
        // Under the writer lock, the published segments are the writer's.
        let snap = self.snapshot();
        std::fs::create_dir_all(dir)?;
        let mut report = SaveReport {
            total_segments: snap.segment_count(),
            ..SaveReport::default()
        };
        let live: HashSet<u64> = snap.segments().iter().map(|s| s.id()).collect();
        for seg in snap.segments() {
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
            seg_ids: snap.segments().iter().map(|s| s.id()).collect(),
            tombstones: snap.tombstones().clone(),
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

/// Changes staged under the writer lock. Dropped unbuilt, they stay
/// pending for the next commit, like those of [`SegmentedIndex::add`] and
/// [`SegmentedIndex::remove`].
pub struct Staged<'a> {
    index: &'a SegmentedIndex,
    st: MutexGuard<'a, WriterState>,
}

impl<'a> Staged<'a> {
    /// [`SegmentedIndex::add`], under the held lock.
    pub fn add(&mut self, id: u64, placement: Placement, text: &str) -> bool {
        if self.st.last_doc_id.is_some_and(|last| id <= last) {
            return false;
        }
        if !self.st.memtable.add(id, placement, text) {
            return false;
        }
        self.st.last_doc_id = Some(id);
        true
    }

    /// [`SegmentedIndex::remove`], under the held lock.
    pub fn remove(&mut self, id: u64) -> bool {
        if self.st.tombstones.contains(&id) || !self.st.contains(id) {
            return false;
        }
        Arc::make_mut(&mut self.st.tombstones).insert(id);
        self.st.dirty = true;
        true
    }

    /// The first half of a commit: seals the memtable and builds the
    /// snapshot of every change since the last commit, unpublished.
    pub fn build(self) -> Built<'a> {
        let Staged { index, mut st } = self;
        let w = &mut *st;
        let sealed = (!w.memtable.is_empty()).then(|| Arc::new(w.memtable.seal(w.next_seg_id)));
        let next = (sealed.is_some() || w.dirty).then(|| {
            let mut segments = w.segments.clone();
            segments.extend(sealed.clone());
            let snap = IndexSnapshot::new(segments, w.tombstones.clone());
            // Woken now, the compactor waits on the writer lock for the
            // install instead of being woken inside the caller's lock.
            index.signal.notify();
            (sealed, Arc::new(snap))
        });
        Built { index, st, next }
    }
}

/// A commit whose snapshot is built but not yet published. Dropped
/// uninstalled, it discards the commit's adds and tombstones, and the
/// published index stays as it was.
pub struct Built<'a> {
    index: &'a SegmentedIndex,
    st: MutexGuard<'a, WriterState>,
    /// The sealed memtable and the snapshot to publish; `None` when
    /// nothing changed, or once installed.
    next: Option<(Option<Arc<Segment>>, Arc<IndexSnapshot>)>,
}

impl Built<'_> {
    /// The second half of a commit: appends the sealed segment and stores
    /// the snapshot pointer. Returns the snapshot it replaced (`None` when
    /// nothing changed), for the caller to drop after its own lock.
    pub fn install(mut self) -> Option<Arc<IndexSnapshot>> {
        let (sealed, snapshot) = self.next.take()?;
        if let Some(seg) = sealed {
            self.st.next_seg_id += 1;
            self.st.segments.push(seg);
            self.index.counters.seals.fetch_add(1, Ordering::Relaxed);
        }
        self.st.dirty = false;
        Some(self.index.swap(snapshot))
    }
}

impl Drop for Built<'_> {
    fn drop(&mut self) {
        // Uninstalled: the memtable is already sealed into `next`, and the
        // tombstones return to the published set.
        if self.next.take().is_some() && self.st.dirty {
            self.st.tombstones = Arc::clone(&self.index.snapshot().tombstones);
            self.st.dirty = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{query_terms, sum_scores};

    /// The placement of tests that do not look at placements.
    const P: Placement = Placement {
        doc: 0,
        context: None,
    };

    /// Live ids of the current snapshot holding the phrase `text`.
    fn phrase(ix: &SegmentedIndex, text: &str) -> Vec<u64> {
        let placed = ix.snapshot().phrase_placed(&query_terms(text));
        placed.into_iter().map(|(id, _)| id).collect()
    }

    /// `(id, score)` pairs of a BM25 search of the current snapshot, by
    /// ascending id: one read per query term, summed the way the engine
    /// sums them.
    fn bm25(ix: &SegmentedIndex, text: &str) -> Vec<(u64, f64)> {
        let snap = ix.snapshot();
        let scored = sum_scores(query_terms(text).iter().map(|t| snap.term_scores(t)));
        scored.into_iter().map(|(id, _, s)| (id, s)).collect()
    }

    /// Every live id of `snap`: its segments' ids minus its tombstones.
    fn live_ids(snap: &IndexSnapshot) -> Vec<u64> {
        let ids = snap.segments().iter().flat_map(|s| s.ids().iter().copied());
        ids.filter(|id| !snap.tombstones().contains(id)).collect()
    }

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
    fn a_build_publishes_only_when_installed() {
        let ix = seeded();
        let before = ix.snapshot();
        let seals = ix.stats().seals;
        // Dropped uninstalled: the published index is untouched, and
        // nothing the build covered reaches a later commit.
        assert!(ix.add(10, P, "orphan telemetry"));
        assert!(ix.remove(2));
        drop(ix.stage().build());
        assert!(Arc::ptr_eq(&ix.snapshot(), &before));
        assert!(!ix.commit(), "the dropped build left nothing pending");
        assert_eq!(ix.stats().seals, seals);
        assert!(phrase(&ix, "telemetry").is_empty());
        assert_eq!(phrase(&ix, "shuttle"), vec![1, 2]);
        // Installed: one snapshot with both changes.
        assert!(ix.add(11, P, "fresh telemetry"));
        assert!(ix.remove(2));
        let built = ix.stage().build();
        assert!(Arc::ptr_eq(&ix.snapshot(), &before), "built, not published");
        assert!(built.install().is_some());
        assert_eq!(phrase(&ix, "telemetry"), vec![11]);
        assert_eq!(phrase(&ix, "shuttle"), vec![1]);
        assert_eq!(ix.stats().seals, seals + 1);
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
                            // Internal consistency: the term every document
                            // holds returns exactly len ids.
                            let common = s.phrase_placed(&["common".to_string()]);
                            assert_eq!(common.len(), n);
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
        for text in [
            "shuttle",
            "the",
            "technology gap",
            "gap technology",
            "the technology gap is",
            "",
        ] {
            let want = reference.phrase(&query_terms(text));
            assert_eq!(phrase(&ix, text), want, "{text:?}");
        }
        assert_eq!(ix.len(), reference.len());
        assert_eq!(ix.snapshot().term_count(), reference.term_count());
        let mut want = reference.search_bm25("shuttle");
        want.sort_by_key(|&(id, _)| id);
        assert_eq!(bm25(&ix, "shuttle"), want);
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
        assert_eq!(phrase(&ix, "shuttle"), vec![1]);
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
        let before_bytes = ix.snapshot().byte_size();
        let all = phrase(&ix, "orbit");
        assert_eq!(all.len(), 60);
        assert_eq!(live_ids(&ix.snapshot()), all);
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
            ix.snapshot().byte_size() < before_bytes,
            "byte_size shrinks after purge: {} vs {}",
            ix.snapshot().byte_size(),
            before_bytes
        );
        assert_eq!(phrase(&ix, "orbit"), all[30..].to_vec());
        assert_eq!(live_ids(&snap), all[30..].to_vec());
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
        for text in ["technology gap", "telemetry"] {
            assert_eq!(phrase(&back, text), phrase(&ix, text), "{text:?}");
        }
        assert_eq!(live_ids(&back.snapshot()), live_ids(&ix.snapshot()));
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
        let million = ["million".to_string()];
        assert_eq!(
            snap.phrase_placed(&million),
            vec![(2, at(1, Some(1))), (3, at(2, None))]
        );
        let scored = snap.term_scores("million");
        assert_eq!(scored.len(), 2);
        for (id, p, _) in scored {
            assert_eq!(Some(p), snap.placement(id));
        }
        ix.remove(2);
        ix.commit();
        let snap = ix.snapshot();
        assert_eq!(snap.placement(2), None, "tombstoned");
        assert_eq!(snap.phrase_placed(&million), vec![(3, at(2, None))]);
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
                assert_eq!(live_ids(&snap).len(), snap.len());
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
