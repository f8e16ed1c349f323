//! Snapshot isolation for readers: an immutable view of the segment chain.
//!
//! Readers take one [`IndexSnapshot`] per query
//! ([`crate::SegmentedIndex::snapshot`]) and then look terms up in it
//! without touching a lock — ingest and compaction publish *new* snapshots
//! instead of mutating the one readers hold. A long analytical query
//! therefore never blocks a batch commit, and a batch commit never stalls
//! the query fleet.

use crate::segment::{segment_of, Placement, Segment};
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

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
    pub(crate) tombstones: Arc<HashSet<u64>>,
    /// Total ids across segments (every tombstone names one of them).
    total_ids: usize,
    /// Sum of segment postings.
    postings: usize,
    /// Sum of segment compressed byte sizes.
    bytes: usize,
    /// Mean token count of the live ids (BM25's avgdl).
    avgdl: f64,
}

impl IndexSnapshot {
    /// Builds a snapshot over `segments` (in id-range order) with `tombstones`.
    pub(crate) fn new(segments: Vec<Arc<Segment>>, tombstones: Arc<HashSet<u64>>) -> IndexSnapshot {
        let total_ids: usize = segments.iter().map(|s| s.len()).sum();
        let postings = segments.iter().map(|s| s.postings()).sum();
        let bytes = segments.iter().map(|s| s.byte_size()).sum();
        // BM25's corpus statistics, once per publication: the segments'
        // stored length totals minus the tombstoned ids' lengths.
        let mut live_len: u64 = segments.iter().map(|s| s.length_total()).sum();
        for &t in tombstones.iter() {
            if let Some((l, _)) = segment_of(&segments, t).and_then(|i| segments[i].entry(t)) {
                live_len = live_len.saturating_sub(l as u64);
            }
        }
        let n_live = total_ids.saturating_sub(tombstones.len());
        let avgdl = (live_len as f64 / n_live as f64).max(f64::MIN_POSITIVE);
        IndexSnapshot {
            segments,
            tombstones,
            total_ids,
            postings,
            bytes,
            avgdl,
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

    /// The placement of a live indexed id: its document and governing
    /// context, as the writer recorded them. `None` for an id that is
    /// tombstoned or was never indexed.
    pub fn placement(&self, id: u64) -> Option<Placement> {
        if self.tombstones.contains(&id) {
            return None;
        }
        let idx = segment_of(&self.segments, id)?;
        Some(self.segments[idx].entry(id)?.1)
    }

    /// Live node ids holding the phrase `terms`, ascending — the ids of
    /// [`InvertedIndex::phrase`](crate::InvertedIndex::phrase) over the same
    /// documents — each with its placement, resolved inside the segment
    /// that matched it. One term is the plain postings lookup, several must
    /// occur consecutively, and no terms match nothing. Segments cover
    /// disjoint id ranges, so each is looked up on its own and the answers
    /// concatenate in segment order.
    pub fn phrase_placed(&self, terms: &[String]) -> Vec<(u64, Placement)> {
        let mut out = Vec::new();
        for seg in &self.segments {
            let mut cursor = 0;
            for id in seg.phrase_ids(terms) {
                if self.tombstones.contains(&id) {
                    continue;
                }
                if let Some((_, placement)) = seg.entry_from(&mut cursor, id) {
                    out.push((id, placement));
                }
            }
        }
        out
    }

    /// The live postings of one query term, ascending by id, each with its
    /// placement and its Okapi BM25 score for that term.
    ///
    /// N and avgdl are the snapshot's, df is the term's live postings
    /// summed across segments, so the score is a *global* function of the
    /// snapshot, identical no matter how the docs are split into segments
    /// (see the segmented-vs-reference property test). A query's per-term
    /// lists add up through [`sum_scores`].
    pub fn term_scores(&self, term: &str) -> Vec<(u64, Placement, f64)> {
        // (id, tf, dl, placement) of the term's live postings, gathered
        // first so df is known before any score lands.
        let mut hits: Vec<(u64, u32, u32, Placement)> = Vec::new();
        for seg in &self.segments {
            let Some(pl) = seg.posting(term) else {
                continue;
            };
            let (mut it, mut cursor) = (pl.iter(), 0);
            while let Some((id, tf)) = it.next_tf() {
                if !self.tombstones.contains(&id) {
                    let (dl, placement) = seg.entry_from(&mut cursor, id).unwrap_or_default();
                    hits.push((id, tf, dl, placement));
                }
            }
        }
        let df = hits.len() as f64;
        let idf = (1.0 + (self.len() as f64 - df + 0.5) / (df + 0.5)).ln();
        hits.into_iter()
            .map(|(id, tf, dl, placement)| {
                let tf = tf as f64;
                let norm = K1 * (1.0 - B + B * dl as f64 / self.avgdl);
                (id, placement, idf * tf * (K1 + 1.0) / (tf + norm))
            })
            .collect()
    }
}

/// Sums a query's per-term score lists ([`IndexSnapshot::term_scores`],
/// each ascending by id) node by node in term order — the running sum
/// `(s1 + s2) + s3 …`, since float addition is order-sensitive. Returns
/// the sums ascending by id, the order the merge produces.
pub fn sum_scores(
    per_term: impl IntoIterator<Item = Vec<(u64, Placement, f64)>>,
) -> Vec<(u64, Placement, f64)> {
    let mut out: Vec<(u64, Placement, f64)> = Vec::new();
    for scored in per_term {
        if out.is_empty() {
            out = scored;
            continue;
        }
        // Both lists ascend by id: merge, adding where both hold one.
        let mut acc = std::mem::take(&mut out).into_iter().peekable();
        for (id, placement, score) in scored {
            while let Some(prev) = acc.next_if(|&(a, ..)| a < id) {
                out.push(prev);
            }
            match acc.next_if(|&(a, ..)| a == id) {
                Some((_, _, sum)) => out.push((id, placement, sum + score)),
                None => out.push((id, placement, score)),
            }
        }
        out.extend(acc);
    }
    out
}
