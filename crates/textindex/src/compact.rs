//! Background compaction: merge small run segments and physically purge
//! tombstoned postings.
//!
//! Each ingest commit seals one run segment, so the chain grows with write
//! traffic; and tombstones accumulate forever unless something rewrites the
//! postings. The compactor fixes both: it plans a merge window (adjacent
//! segments — adjacency preserves the disjoint ascending id-range
//! invariant), merges *outside* any lock (segments are immutable), and
//! swaps the merged segment in under a brief writer-lock critical section.
//! Readers are never paused: they keep whatever snapshot they loaded.

use crate::postings::PostingList;
use crate::segment::{segment_of, Columns, Segment};
use std::collections::{BTreeMap, HashSet};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// When and what to compact.
#[derive(Debug, Clone)]
pub struct CompactionPolicy {
    /// Merge any adjacent run of ≥2 segments that are each smaller than
    /// this many postings (freshly sealed ingest runs).
    pub small_postings: usize,
    /// Above this many segments, merge the cheapest adjacent pair even if
    /// both are large, bounding per-query segment fan-out.
    pub max_segments: usize,
    /// Rewrite a single segment once this percentage of its ids are
    /// tombstoned, physically reclaiming the dead postings.
    pub tombstone_percent: u32,
}

impl Default for CompactionPolicy {
    fn default() -> CompactionPolicy {
        CompactionPolicy {
            small_postings: 4096,
            max_segments: 8,
            tombstone_percent: 25,
        }
    }
}

/// Picks the next merge window under `policy`, or `None` when the chain is
/// in shape. Windows are contiguous, preserving id-range adjacency.
pub(crate) fn plan(
    segments: &[Arc<Segment>],
    tombstones: &HashSet<u64>,
    policy: &CompactionPolicy,
) -> Option<Range<usize>> {
    // 1. Longest run of adjacent small segments (ingest runs pile up at the
    //    tail; merging them keeps per-query fan-out flat).
    let mut best: Option<Range<usize>> = None;
    let mut start = 0usize;
    while start < segments.len() {
        if segments[start].postings() >= policy.small_postings {
            start += 1;
            continue;
        }
        let mut end = start + 1;
        while end < segments.len() && segments[end].postings() < policy.small_postings {
            end += 1;
        }
        if end - start >= 2 && best.as_ref().is_none_or(|b| end - start > b.len()) {
            best = Some(start..end);
        }
        start = end;
    }
    if let Some(w) = best {
        return Some(w);
    }
    // 2. Chain too long: merge the cheapest adjacent pair.
    if segments.len() > policy.max_segments {
        let i = (0..segments.len() - 1)
            .min_by_key(|&i| segments[i].postings() + segments[i + 1].postings())
            .expect("len > max_segments >= 1");
        return Some(i..i + 2);
    }
    // 3. Tombstone pressure: rewrite any segment whose dead fraction
    //    crossed the threshold. Tombstones are attributed to segments via
    //    the disjoint-range invariant.
    if !tombstones.is_empty() {
        let mut dead = vec![0usize; segments.len()];
        for &id in tombstones {
            if let Some(idx) = segment_of(segments, id) {
                dead[idx] += 1;
            }
        }
        for (i, seg) in segments.iter().enumerate() {
            if dead[i] > 0 && dead[i] * 100 >= seg.len() * policy.tombstone_percent as usize {
                return Some(i..i + 1);
            }
        }
    }
    None
}

/// Output of [`merge`]: the combined segment plus what was reclaimed.
pub(crate) struct MergeResult {
    pub segment: Segment,
    /// Tombstoned ids physically removed (safe to drop from the global
    /// tombstone set — each id lives in exactly one segment).
    pub purged_ids: Vec<u64>,
    /// Postings dropped along with them.
    pub purged_postings: usize,
}

/// Merges `segs` (adjacent, id-range ascending) into one segment with
/// identity `new_id`, dropping postings of `tombstones` members. Pure —
/// runs outside all locks.
pub(crate) fn merge(new_id: u64, segs: &[Arc<Segment>], tombstones: &HashSet<u64>) -> MergeResult {
    let mut by_term: BTreeMap<&str, Vec<&PostingList>> = BTreeMap::new();
    for seg in segs {
        for (t, pl) in seg.terms() {
            by_term.entry(t).or_default().push(pl);
        }
    }
    let mut terms: BTreeMap<String, PostingList> = BTreeMap::new();
    let mut postings = 0usize;
    let mut purged_postings = 0usize;
    for (t, pls) in by_term {
        let mut out = PostingList::new();
        // Segments ascend by id range, so appends stay in order.
        for pl in pls {
            for p in pl.iter() {
                if tombstones.contains(&p.id) {
                    purged_postings += 1;
                } else {
                    out.push(p.id, &p.positions);
                    postings += 1;
                }
            }
        }
        if !out.is_empty() {
            terms.insert(t.to_string(), out);
        }
    }
    // The per-id columns (lengths, placements) carry over verbatim for
    // every surviving id.
    let mut cols = Columns::default();
    let mut purged_ids = Vec::new();
    for seg in segs {
        let from = seg.columns();
        for (i, &id) in from.ids().iter().enumerate() {
            if tombstones.contains(&id) {
                purged_ids.push(id);
            } else {
                cols.push_from(from, i);
            }
        }
    }
    MergeResult {
        segment: Segment::from_parts(new_id, terms, cols, postings),
        purged_ids,
        purged_postings,
    }
}

/// Commit → compactor wakeup channel (a seq counter under a condvar, so
/// notifies are never lost even if the compactor is mid-pass).
#[derive(Debug, Default)]
pub(crate) struct Signal {
    seq: Mutex<u64>,
    cv: Condvar,
}

impl Signal {
    pub(crate) fn notify(&self) {
        let mut g = self.seq.lock().unwrap_or_else(|e| e.into_inner());
        *g += 1;
        self.cv.notify_all();
    }

    /// Blocks until the counter moves past `seen` (or `timeout`); returns
    /// the current counter.
    pub(crate) fn wait_past(&self, seen: u64, timeout: Duration) -> u64 {
        let g = self.seq.lock().unwrap_or_else(|e| e.into_inner());
        if *g != seen {
            return *g;
        }
        let (g, _) = self
            .cv
            .wait_timeout(g, timeout)
            .unwrap_or_else(|e| e.into_inner());
        *g
    }
}

/// Handle to the background compaction thread. Dropping it stops and joins
/// the thread.
pub struct Compactor {
    stop: Arc<AtomicBool>,
    signal: Arc<Signal>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Compactor {
    /// Spawns the compaction loop over `index`. The thread wakes on every
    /// commit (and on a periodic fallback tick) and runs merge passes until
    /// the policy reports the chain in shape.
    pub(crate) fn spawn(index: Arc<crate::SegmentedIndex>) -> Compactor {
        let stop = Arc::new(AtomicBool::new(false));
        let signal = index.signal();
        let thread_stop = stop.clone();
        let thread_signal = signal.clone();
        let handle = std::thread::Builder::new()
            .name("nm-textindex-compact".into())
            .spawn(move || {
                let mut seen = 0u64;
                while !thread_stop.load(Ordering::Relaxed) {
                    while index.compact_once().is_some() {
                        if thread_stop.load(Ordering::Relaxed) {
                            return;
                        }
                    }
                    seen = thread_signal.wait_past(seen, Duration::from_millis(100));
                }
            })
            .expect("spawn compactor thread");
        Compactor {
            stop,
            signal,
            handle: Some(handle),
        }
    }
}

impl Drop for Compactor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.signal.notify();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for Compactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Compactor")
            .field("stopped", &self.stop.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{MemTable, Placement};

    /// Ten ids per document, each governed by its document's first id.
    fn placed(id: u64) -> Placement {
        Placement {
            doc: id / 10,
            context: Some(id - id % 10),
        }
    }

    fn run(id: u64, ids: Range<u64>) -> Arc<Segment> {
        let mut mt = MemTable::new();
        for i in ids {
            mt.add(i, placed(i), "alpha beta gamma");
        }
        Arc::new(mt.seal(id))
    }

    #[test]
    fn plan_merges_adjacent_small_runs_first() {
        let policy = CompactionPolicy {
            small_postings: 100,
            max_segments: 8,
            tombstone_percent: 25,
        };
        // One big segment followed by three small runs.
        let mut big = MemTable::new();
        for i in 0..200u64 {
            big.add(i + 1, placed(i + 1), "alpha beta gamma delta epsilon");
        }
        let segs = vec![
            Arc::new(big.seal(0)),
            run(1, 1000..1005),
            run(2, 2000..2005),
            run(3, 3000..3005),
        ];
        let none = HashSet::new();
        assert_eq!(plan(&segs, &none, &policy), Some(1..4));
        // A single small segment is not a merge window.
        assert_eq!(plan(&segs[..2], &none, &policy), None);
    }

    #[test]
    fn plan_bounds_chain_length() {
        let policy = CompactionPolicy {
            small_postings: 1, // nothing counts as small
            max_segments: 3,
            tombstone_percent: 25,
        };
        let segs: Vec<Arc<Segment>> = (0..5u64)
            .map(|i| run(i, i * 100 + 1..i * 100 + 4))
            .collect();
        let w = plan(&segs, &HashSet::new(), &policy).expect("chain over budget");
        assert_eq!(w.len(), 2, "merges an adjacent pair");
    }

    #[test]
    fn plan_fires_on_tombstone_pressure_and_merge_purges() {
        let policy = CompactionPolicy {
            small_postings: 1,
            max_segments: 8,
            tombstone_percent: 25,
        };
        let segs = vec![run(0, 1..11), run(1, 100..110)];
        let mut tombs = HashSet::new();
        for id in 100..103u64 {
            tombs.insert(id); // 30% of segment 1
        }
        assert_eq!(plan(&segs, &tombs, &policy), Some(1..2));
        let m = merge(9, &segs[1..2], &tombs);
        assert_eq!(m.purged_ids.len(), 3);
        assert_eq!(
            m.purged_postings, 10,
            "3 ids × 3 single-position terms, and context 100's label posting"
        );
        assert_eq!(m.segment.len(), 7);
        assert_eq!(m.segment.id(), 9);
        assert!(m.segment.byte_size() < segs[1].byte_size());
    }

    #[test]
    fn merge_preserves_eval_results() {
        let segs = vec![run(0, 1..6), run(1, 50..56), run(2, 90..93)];
        let m = merge(3, &segs, &HashSet::new());
        let q = ["beta".to_string()];
        let mut expect = Vec::new();
        for s in &segs {
            expect.extend(s.phrase_ids(&q));
        }
        assert_eq!(m.segment.phrase_ids(&q), expect);
        assert_eq!(
            m.segment.postings(),
            segs.iter().map(|s| s.postings()).sum()
        );
    }

    #[test]
    fn merge_equals_sealing_the_survivors() {
        // Varied texts so lengths differ per id; the merge must carry the
        // lengths and both placement arrays of exactly the surviving ids.
        let text = |i: u64| "alpha beta gamma delta ".repeat(1 + i as usize % 4);
        let seal = |id: u64, ids: &[u64]| {
            let mut mt = MemTable::new();
            for &i in ids {
                assert!(mt.add(i, placed(i), &text(i)));
            }
            Arc::new(mt.seal(id))
        };
        let runs: [Vec<u64>; 3] = [(1..8).collect(), (20..33).collect(), (40..45).collect()];
        let segs: Vec<Arc<Segment>> = runs
            .iter()
            .enumerate()
            .map(|(i, ids)| seal(i as u64, ids))
            .collect();
        let tombs: HashSet<u64> = [2, 3, 20, 31, 44].into_iter().collect();
        let survivors: Vec<u64> = runs
            .iter()
            .flatten()
            .copied()
            .filter(|id| !tombs.contains(id))
            .collect();
        let m = merge(9, &segs, &tombs);
        assert_eq!(*seal(9, &survivors), m.segment);
        assert_eq!(m.purged_ids.len(), tombs.len());
    }
}
