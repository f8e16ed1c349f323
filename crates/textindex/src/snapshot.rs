//! Snapshot isolation for readers: an immutable view of the segment chain.
//!
//! Readers take one [`IndexSnapshot`] per query
//! ([`crate::SegmentedIndex::snapshot`]) and then evaluate against it
//! without touching a lock — ingest and compaction publish *new* snapshots
//! instead of mutating the one readers hold. A long analytical query
//! therefore never blocks a batch commit, and a batch commit never stalls
//! the query fleet.

use crate::segment::Segment;
use crate::TextQuery;
use std::collections::{BTreeSet, HashMap, HashSet};
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
