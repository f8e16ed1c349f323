//! Snapshot isolation for readers: an immutable view of the segment chain
//! plus a lock-free publication cell.
//!
//! Readers call [`SnapshotCell::load`] once per query and then evaluate
//! against the returned [`IndexSnapshot`] without ever touching a lock —
//! ingest and compaction publish *new* snapshots instead of mutating the
//! one readers hold. A long analytical query therefore never blocks a
//! batch commit, and a batch commit never stalls the query fleet.

use crate::segment::Segment;
use crate::TextQuery;
use std::cell::UnsafeCell;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Okapi BM25 `k1` (term-frequency saturation).
const K1: f64 = 1.2;
/// Okapi BM25 `b` (length-normalization strength).
const B: f64 = 0.75;

/// An immutable, fully consistent view of the index at one publication
/// point: the sealed segment chain (disjoint ascending id ranges) and the
/// tombstone set that was current when the snapshot was taken.
#[derive(Debug)]
pub struct IndexSnapshot {
    segments: Vec<Arc<Segment>>,
    tombstones: Arc<HashSet<u64>>,
    /// Total ids across segments (every tombstone names one of them).
    total_ids: usize,
    /// Sum of segment postings.
    postings: usize,
    /// Sum of segment compressed byte sizes.
    bytes: usize,
}

impl IndexSnapshot {
    /// Snapshot of an empty index.
    pub fn empty() -> IndexSnapshot {
        IndexSnapshot::new(Vec::new(), Arc::new(HashSet::new()))
    }

    /// Builds a snapshot over `segments` (in id-range order) with `tombstones`.
    pub(crate) fn new(segments: Vec<Arc<Segment>>, tombstones: Arc<HashSet<u64>>) -> IndexSnapshot {
        let total_ids = segments.iter().map(|s| s.len()).sum();
        let postings = segments.iter().map(|s| s.postings()).sum();
        let bytes = segments.iter().map(|s| s.byte_size()).sum();
        IndexSnapshot {
            segments,
            tombstones,
            total_ids,
            postings,
            bytes,
        }
    }

    /// The sealed segments, oldest id range first.
    pub fn segments(&self) -> &[Arc<Segment>] {
        &self.segments
    }

    /// Tombstoned ids (every one names an id present in some segment).
    pub fn tombstones(&self) -> &HashSet<u64> {
        &self.tombstones
    }

    /// Number of live (non-tombstoned) indexed nodes.
    pub fn len(&self) -> usize {
        self.total_ids.saturating_sub(self.tombstones.len())
    }

    /// True when no live nodes are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of sealed segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Total postings across segments (tombstoned postings included until
    /// compaction purges them).
    pub fn posting_count(&self) -> usize {
        self.postings
    }

    /// Compressed bytes across all posting lists.
    pub fn byte_size(&self) -> usize {
        self.bytes
    }

    /// Number of distinct terms across segments (a term indexed in several
    /// segments counts once).
    pub fn term_count(&self) -> usize {
        match self.segments.len() {
            0 => 0,
            1 => self.segments[0].term_count(),
            _ => {
                let mut distinct: BTreeSet<&str> = BTreeSet::new();
                for seg in &self.segments {
                    distinct.extend(seg.terms().map(|(t, _)| t));
                }
                distinct.len()
            }
        }
    }

    /// Evaluates `query`, returning live node ids ascending — byte-identical
    /// to [`InvertedIndex::execute`](crate::InvertedIndex::execute) over the
    /// same documents. Set operations distribute over the disjoint segment
    /// id ranges, so each segment is evaluated independently and the results
    /// concatenate in segment order.
    pub fn execute(&self, query: &TextQuery) -> Vec<u64> {
        let mut out = Vec::new();
        for seg in &self.segments {
            let matches = seg.eval(query);
            if self.tombstones.is_empty() {
                out.extend_from_slice(&matches);
            } else {
                out.extend(
                    matches
                        .iter()
                        .copied()
                        .filter(|id| !self.tombstones.contains(id)),
                );
            }
        }
        out
    }

    /// BM25-ranked search: live ids scored by Okapi BM25 over the snapshot's
    /// corpus statistics, descending (score ties break on ascending id).
    ///
    /// N and avgdl come from the segment chain's stored length metadata, df
    /// from summing a term's live postings across segments — so the score is
    /// a *global* function of the snapshot, identical no matter how the docs
    /// are split into segments (see the segmented-vs-reference property
    /// test).
    pub fn search_bm25(&self, text: &str) -> Vec<(u64, f64)> {
        let terms = crate::tokenize::query_terms(text);
        let n_live = self.len();
        if terms.is_empty() || n_live == 0 {
            return Vec::new();
        }
        let mut total_len: u64 = self.segments.iter().map(|s| s.length_total()).sum();
        for &t in self.tombstones.iter() {
            for seg in &self.segments {
                if let Some(l) = seg.length_of(t) {
                    total_len -= l as u64;
                    break;
                }
            }
        }
        let avgdl = (total_len as f64 / n_live as f64).max(f64::MIN_POSITIVE);
        let mut scores: HashMap<u64, f64> = HashMap::new();
        for term in &terms {
            // (id, tf, dl) of the term's live postings, gathered first so
            // df is known before any score lands.
            let mut hits: Vec<(u64, u32, u32)> = Vec::new();
            for seg in &self.segments {
                if let Some(pl) = seg.posting(term) {
                    for p in pl.iter() {
                        if !self.tombstones.contains(&p.id) {
                            let dl = seg.length_of(p.id).unwrap_or(0);
                            hits.push((p.id, p.positions.len() as u32, dl));
                        }
                    }
                }
            }
            if hits.is_empty() {
                continue;
            }
            let df = hits.len() as f64;
            let idf = (1.0 + (n_live as f64 - df + 0.5) / (df + 0.5)).ln();
            for (id, tf, dl) in hits {
                let tf = tf as f64;
                let norm = K1 * (1.0 - B + B * dl as f64 / avgdl);
                *scores.entry(id).or_default() += idf * tf * (K1 + 1.0) / (tf + norm);
            }
        }
        let mut out: Vec<(u64, f64)> = scores.into_iter().collect();
        out.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        out
    }
}

/// Lock-free snapshot publication: readers pay one atomic version load, a
/// reader-count increment/decrement and an `Arc` clone — no `RwLock`, no
/// writer can ever block them for longer than its own pointer swap.
///
/// Left/right scheme: two slots hold the current and previous snapshot
/// `Arc`. `version`'s parity selects the live slot. A reader (1) loads the
/// version, (2) registers in the per-slot in-flight counter, (3) re-checks
/// the version — if it moved, unregister and retry — then clones the `Arc`
/// and unregisters. A writer (serialized by `write`) prepares the *inactive*
/// slot: it waits for that slot's stragglers to drain (readers hold it only
/// for the duration of an `Arc` clone), stores the new snapshot, and flips
/// the version. Readers registered on the active slot are never disturbed.
/// All atomics are `SeqCst`: publication is rare (once per commit /
/// compaction), so the fence cost is irrelevant next to correctness.
pub struct SnapshotCell {
    version: AtomicU64,
    readers: [AtomicU64; 2],
    slots: [UnsafeCell<Arc<IndexSnapshot>>; 2],
    write: Mutex<()>,
}

// SAFETY: slot contents are only written by the single writer holding
// `write`, and only after the target slot's reader count has drained to
// zero; readers only clone out of the slot the version currently points
// at while registered in its counter. `Arc<IndexSnapshot>` is Send + Sync.
unsafe impl Send for SnapshotCell {}
unsafe impl Sync for SnapshotCell {}

impl SnapshotCell {
    /// A cell initially holding `snap`.
    pub fn new(snap: Arc<IndexSnapshot>) -> SnapshotCell {
        SnapshotCell {
            version: AtomicU64::new(0),
            readers: [AtomicU64::new(0), AtomicU64::new(0)],
            slots: [UnsafeCell::new(snap.clone()), UnsafeCell::new(snap)],
            write: Mutex::new(()),
        }
    }

    /// Returns the current snapshot. Lock-free and wait-free in practice:
    /// the retry loop only spins when a publication lands between the two
    /// version loads, and publications are per-commit rare.
    pub fn load(&self) -> Arc<IndexSnapshot> {
        loop {
            let v = self.version.load(Ordering::SeqCst);
            let slot = (v & 1) as usize;
            self.readers[slot].fetch_add(1, Ordering::SeqCst);
            if self.version.load(Ordering::SeqCst) == v {
                // The slot cannot be overwritten while we are registered:
                // the writer that would target it must first observe our
                // registration and wait for it to drain.
                let snap = unsafe { (*self.slots[slot].get()).clone() };
                self.readers[slot].fetch_sub(1, Ordering::SeqCst);
                return snap;
            }
            // A publication raced us; re-read the fresh version.
            self.readers[slot].fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Publishes `snap` as the new current snapshot.
    pub fn store(&self, snap: Arc<IndexSnapshot>) {
        let _guard = self.write.lock().unwrap_or_else(|e| e.into_inner());
        let v = self.version.load(Ordering::SeqCst);
        let target = ((v + 1) & 1) as usize;
        // Wait out stragglers registered on the inactive slot (readers of
        // version v-1 that have not yet unregistered). They hold the slot
        // only across an Arc clone, so this is a bounded spin.
        while self.readers[target].load(Ordering::SeqCst) != 0 {
            std::hint::spin_loop();
        }
        unsafe {
            *self.slots[target].get() = snap;
        }
        self.version.store(v + 1, Ordering::SeqCst);
    }
}

impl std::fmt::Debug for SnapshotCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotCell")
            .field("version", &self.version.load(Ordering::SeqCst))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::MemTable;

    fn snap_of(docs: &[(u64, &str)]) -> Arc<IndexSnapshot> {
        let mut mt = MemTable::new();
        for &(id, text) in docs {
            mt.add(id, text);
        }
        let seg = Arc::new(mt.seal(0));
        Arc::new(IndexSnapshot::new(vec![seg], Arc::new(HashSet::new())))
    }

    #[test]
    fn cell_load_store_round_trip() {
        let cell = SnapshotCell::new(Arc::new(IndexSnapshot::empty()));
        assert_eq!(cell.load().len(), 0);
        cell.store(snap_of(&[(1, "alpha"), (2, "beta")]));
        assert_eq!(cell.load().len(), 2);
        cell.store(snap_of(&[(1, "alpha")]));
        assert_eq!(cell.load().len(), 1);
    }

    #[test]
    fn concurrent_readers_see_only_published_snapshots() {
        // Publisher cycles through snapshots with 1..=N docs; readers must
        // only ever observe one of those exact states (len == term count of
        // a published state, never a torn mix).
        let cell = Arc::new(SnapshotCell::new(snap_of(&[(1, "w0")])));
        let stop = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let cell = cell.clone();
            let stop = stop.clone();
            handles.push(std::thread::spawn(move || {
                let mut observed = 0u64;
                while stop.load(Ordering::Relaxed) == 0 {
                    let s = cell.load();
                    let n = s.len() as u64;
                    assert!((1..=64).contains(&n), "torn snapshot: {n} docs");
                    // Snapshot internal consistency: executing All returns
                    // exactly len ids.
                    assert_eq!(s.execute(&TextQuery::All).len() as u64, n);
                    observed = observed.max(n);
                }
                observed
            }));
        }
        for round in 2..=64u64 {
            let docs: Vec<(u64, String)> =
                (1..=round).map(|i| (i, format!("w{i} common"))).collect();
            let borrowed: Vec<(u64, &str)> = docs.iter().map(|(i, t)| (*i, t.as_str())).collect();
            cell.store(snap_of(&borrowed));
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        stop.store(1, Ordering::Relaxed);
        for h in handles {
            let seen = h.join().expect("reader panicked");
            assert!(seen >= 1);
        }
        assert_eq!(cell.load().len(), 64);
    }
}
