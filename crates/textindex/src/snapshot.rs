//! Snapshot isolation for readers: an immutable view of the segment chain.
//!
//! Readers take one [`IndexSnapshot`] per query
//! ([`crate::SegmentedIndex::snapshot`]) and then evaluate against it
//! without touching a lock — ingest and compaction publish *new* snapshots
//! instead of mutating the one readers hold. A long analytical query
//! therefore never blocks a batch commit, and a batch commit never stalls
//! the query fleet.

use crate::segment::{segment_of, Placement, Segment};
use crate::TextQuery;
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

    /// Evaluates `query`, returning live node ids ascending — the ids of
    /// [`IndexSnapshot::execute_placed`].
    pub fn execute(&self, query: &TextQuery) -> Vec<u64> {
        self.execute_placed(query)
            .into_iter()
            .map(|(id, _)| id)
            .collect()
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

    /// Evaluates `query`, returning live node ids ascending — byte-identical
    /// to [`InvertedIndex::execute`](crate::InvertedIndex::execute) over the
    /// same documents — each with its placement, resolved inside the segment
    /// that matched it. Set operations distribute over the disjoint segment
    /// id ranges, so each segment is evaluated independently and the results
    /// concatenate in segment order.
    pub fn execute_placed(&self, query: &TextQuery) -> Vec<(u64, Placement)> {
        let mut out = Vec::new();
        for seg in &self.segments {
            let mut cursor = 0;
            for &id in seg.eval(query).iter() {
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

    /// BM25-ranked search: live ids scored by Okapi BM25 over the snapshot's
    /// corpus statistics, descending (score ties break on ascending id).
    pub fn search_bm25(&self, text: &str) -> Vec<(u64, f64)> {
        self.search_bm25_placed(text)
            .into_iter()
            .map(|(id, _, score)| (id, score))
            .collect()
    }

    /// [`IndexSnapshot::search_bm25`] with each scored id's placement.
    ///
    /// N and avgdl come from the segment chain's stored length metadata, df
    /// from summing a term's live postings across segments — so the score is
    /// a *global* function of the snapshot, identical no matter how the docs
    /// are split into segments (see the segmented-vs-reference property
    /// test).
    pub fn search_bm25_placed(&self, text: &str) -> Vec<(u64, Placement, f64)> {
        let terms = crate::tokenize::query_terms(text);
        let n_live = self.len();
        if terms.is_empty() || n_live == 0 {
            return Vec::new();
        }
        let mut total_len: u64 = self.segments.iter().map(|s| s.length_total()).sum();
        for &t in self.tombstones.iter() {
            if let Some((l, _)) =
                segment_of(&self.segments, t).and_then(|i| self.segments[i].entry(t))
            {
                total_len = total_len.saturating_sub(l as u64);
            }
        }
        let avgdl = (total_len as f64 / n_live as f64).max(f64::MIN_POSITIVE);
        // Per-id sums, ascending by id: every term's postings ascend
        // (segments hold ascending, disjoint id ranges), so each term merges
        // in, adding its score to a running sum in term order.
        let mut out: Vec<(u64, Placement, f64)> = Vec::new();
        for term in &terms {
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
            if hits.is_empty() {
                continue;
            }
            let df = hits.len() as f64;
            let idf = (1.0 + (n_live as f64 - df + 0.5) / (df + 0.5)).ln();
            let scored = hits.into_iter().map(|(id, tf, dl, placement)| {
                let tf = tf as f64;
                let norm = K1 * (1.0 - B + B * dl as f64 / avgdl);
                (id, placement, idf * tf * (K1 + 1.0) / (tf + norm))
            });
            out = merge_sums(out, scored);
        }
        out.sort_by(|a, b| {
            b.2.partial_cmp(&a.2)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        out
    }
}

/// Merges two id-ascending score lists, adding `more`'s score to `acc`'s
/// where both hold an id (`acc + more`, the order a running sum takes).
fn merge_sums(
    acc: Vec<(u64, Placement, f64)>,
    more: impl Iterator<Item = (u64, Placement, f64)>,
) -> Vec<(u64, Placement, f64)> {
    let mut out = Vec::with_capacity(acc.len());
    let mut acc = acc.into_iter().peekable();
    for (id, placement, score) in more {
        while let Some(&(a, ..)) = acc.peek() {
            if a >= id {
                break;
            }
            out.extend(acc.next());
        }
        match acc.peek() {
            Some(&(a, _, sum)) if a == id => {
                acc.next();
                out.push((id, placement, sum + score));
            }
            _ => out.push((id, placement, score)),
        }
    }
    out.extend(acc);
    out
}
