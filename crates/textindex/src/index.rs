//! The single-map reference index.
//!
//! Node-granular: the unit of indexing is one *node* of the store (not a
//! whole document). This is what lets NETMARK's combined
//! `Context=X & Content=Y` search check "does Y occur *within* section X"
//! without rescanning document text (see the index-granularity ablation in
//! the bench crate).
//!
//! [`InvertedIndex`] is an in-memory oracle: one term map, no segments, no
//! persistence. Property tests and benches check the production
//! [`SegmentedIndex`](crate::SegmentedIndex) against it.

use crate::postings::{intersect, PostingList};
use crate::tokenize::{query_terms, tokenize_text};
use std::collections::{BTreeMap, HashMap, HashSet};

/// An in-memory inverted index over `(node id → text)` pairs — the
/// reference the segmented index is tested against.
#[derive(Debug, Default)]
pub struct InvertedIndex {
    terms: BTreeMap<String, PostingList>,
    /// Ids whose postings must be ignored (lazy deletion).
    tombstones: HashSet<u64>,
    /// All indexed ids, ascending.
    ids: Vec<u64>,
    /// Token count per id, parallel to `ids` (BM25 length normalization).
    lengths: Vec<u32>,
    /// Total postings (stats).
    postings: usize,
}

impl InvertedIndex {
    /// Empty index.
    pub fn new() -> InvertedIndex {
        InvertedIndex::default()
    }

    /// Indexes `text` under `id`. Ids must be added in ascending order
    /// (the store's node-id allocator guarantees this); violations are
    /// reported as `false` and skipped.
    pub fn add(&mut self, id: u64, text: &str) -> bool {
        if let Some(&last) = self.ids.last() {
            if id <= last {
                return false;
            }
        }
        let mut per_term: HashMap<String, Vec<u32>> = HashMap::new();
        let mut tokens = 0u32;
        for tok in tokenize_text(text) {
            per_term.entry(tok.term).or_default().push(tok.position);
            tokens += 1;
        }
        self.ids.push(id);
        self.lengths.push(tokens);
        for (term, positions) in per_term {
            let pl = self.terms.entry(term).or_default();
            pl.push(id, &positions);
            self.postings += 1;
        }
        true
    }

    /// Tombstones `id`; its postings stop matching immediately. Ids that
    /// were never indexed (or are already tombstoned) are ignored and
    /// reported as `false` — blindly recording them would make
    /// [`InvertedIndex::len`] underflow.
    pub fn remove(&mut self, id: u64) -> bool {
        if self.ids.binary_search(&id).is_err() {
            return false;
        }
        self.tombstones.insert(id)
    }

    /// Number of live indexed nodes. `remove` only tombstones known ids,
    /// so every tombstone is backed by an entry in `ids`.
    pub fn len(&self) -> usize {
        self.ids.len().saturating_sub(self.tombstones.len())
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct terms.
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// Total compressed bytes across posting lists.
    pub fn byte_size(&self) -> usize {
        self.terms.values().map(|p| p.byte_size()).sum()
    }

    /// Live ids holding the phrase `terms`, ascending: one term is its
    /// posting list, several must occur consecutively, and no terms match
    /// nothing.
    pub fn phrase(&self, terms: &[String]) -> Vec<u64> {
        let Some(lists) = terms
            .iter()
            .map(|t| self.terms.get(t))
            .collect::<Option<Vec<&PostingList>>>()
        else {
            return Vec::new();
        };
        let Some((first, rest)) = lists.split_first() else {
            return Vec::new();
        };
        let mut candidates = first.ids();
        for l in rest {
            candidates = intersect(&candidates, &l.ids());
        }
        // id → per-term position lists, for the candidates only.
        let mut positions: HashMap<u64, Vec<Vec<u32>>> = candidates
            .iter()
            .map(|&id| (id, vec![Vec::new(); terms.len()]))
            .collect();
        for (ti, l) in lists.iter().enumerate() {
            for p in l.iter() {
                if let Some(slot) = positions.get_mut(&p.id) {
                    slot[ti] = p.positions;
                }
            }
        }
        // A phrase match: p0 in term 0 with p0+i in term i for all i.
        candidates.retain(|id| {
            let per_term = &positions[id];
            per_term[0].iter().any(|&p0| {
                per_term[1..]
                    .iter()
                    .enumerate()
                    .all(|(i, ps)| ps.binary_search(&(p0 + i as u32 + 1)).is_ok())
            })
        });
        candidates.retain(|id| !self.tombstones.contains(id));
        candidates
    }

    /// BM25-ranked search: live ids scored by Okapi BM25, descending
    /// (score ties break on ascending id). Same constants and corpus-stat
    /// definitions as
    /// [`IndexSnapshot::term_scores`](crate::IndexSnapshot::term_scores),
    /// computed from the same integer statistics — over the same documents,
    /// ordered by id, this equals the snapshot's per-term lists summed by
    /// [`sum_scores`](crate::sum_scores), bit for bit.
    pub fn search_bm25(&self, text: &str) -> Vec<(u64, f64)> {
        const K1: f64 = 1.2;
        const B: f64 = 0.75;
        let terms = query_terms(text);
        let n_live = self.len();
        if terms.is_empty() || n_live == 0 {
            return Vec::new();
        }
        let mut total_len = 0u64;
        for (i, id) in self.ids.iter().enumerate() {
            if !self.tombstones.contains(id) {
                total_len += self.lengths[i] as u64;
            }
        }
        let avgdl = (total_len as f64 / n_live as f64).max(f64::MIN_POSITIVE);
        let mut scores: HashMap<u64, f64> = HashMap::new();
        for term in &terms {
            let Some(pl) = self.terms.get(term) else {
                continue;
            };
            let mut hits: Vec<(u64, u32, u32)> = Vec::new();
            for p in pl.iter() {
                if !self.tombstones.contains(&p.id) {
                    let dl = self
                        .ids
                        .binary_search(&p.id)
                        .map(|i| self.lengths[i])
                        .unwrap_or(0);
                    hits.push((p.id, p.positions.len() as u32, dl));
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

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> InvertedIndex {
        let mut ix = InvertedIndex::new();
        ix.add(1, "The space shuttle program");
        ix.add(2, "Shuttle engine anomaly report");
        ix.add(3, "Budget overview for the technology gap");
        ix.add(4, "The technology gap is shrinking fast");
        ix
    }

    /// Live ids holding the phrase `text` tokenizes to.
    fn phrase(ix: &InvertedIndex, text: &str) -> Vec<u64> {
        ix.phrase(&query_terms(text))
    }

    #[test]
    fn term_query() {
        let ix = sample();
        assert_eq!(phrase(&ix, "shuttle"), vec![1, 2]);
        assert_eq!(phrase(&ix, "SHUTTLE"), vec![1, 2]);
        assert!(phrase(&ix, "mars").is_empty());
    }

    #[test]
    fn phrase_query() {
        let ix = sample();
        assert_eq!(phrase(&ix, "technology gap"), vec![3, 4]);
        assert!(
            phrase(&ix, "gap technology").is_empty(),
            "order matters for phrases"
        );
        assert_eq!(phrase(&ix, "the technology gap is"), vec![4]);
        assert!(phrase(&ix, "technology mars").is_empty());
        assert!(ix.phrase(&[]).is_empty(), "no terms match nothing");
        assert!(phrase(&ix, "---").is_empty());
    }

    #[test]
    fn tombstones_hide_results() {
        let mut ix = sample();
        ix.remove(2);
        assert_eq!(phrase(&ix, "shuttle"), vec![1]);
        assert_eq!(ix.len(), 3);
        ix.remove(4);
        assert_eq!(phrase(&ix, "technology gap"), vec![3]);
        assert_eq!(ix.len(), 2);
    }

    #[test]
    fn remove_of_unknown_id_does_not_underflow_len() {
        let mut ix = sample();
        assert_eq!(ix.len(), 4);
        // Never-indexed ids are rejected; len() used to wrap to huge values
        // (release) or panic (debug) after enough of these.
        for bogus in [0u64, 99, 100, 12345] {
            assert!(!ix.remove(bogus));
        }
        assert_eq!(ix.len(), 4);
        assert!(ix.remove(2));
        assert!(!ix.remove(2), "double remove is a no-op");
        assert_eq!(ix.len(), 3);
        assert!(!ix.is_empty());
    }

    #[test]
    fn out_of_order_add_rejected() {
        let mut ix = sample();
        assert!(!ix.add(2, "late"));
        assert!(ix.add(10, "fine"));
    }

    #[test]
    fn bm25_normalizes_by_length_and_rarity() {
        let mut ix = InvertedIndex::new();
        ix.add(1, "budget");
        ix.add(
            2,
            "budget budget budget padding padding padding padding padding",
        );
        ix.add(3, "padding padding padding");
        ix.add(4, "padding");
        let r = ix.search_bm25("budget");
        // Only docs containing the term score; the short exact doc beats
        // the long high-tf one (tf saturation + length normalization —
        // plain TF ranking would invert this).
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].0, 1);
        assert_eq!(r[1].0, 2);
        assert!(r[0].1 > r[1].1);
        assert!(r.iter().all(|(_, s)| *s > 0.0));
        // Rarity: the rarer term (df 2 of 4) outscores the common one
        // (df 3 of 4) at its best-matching doc.
        let common = ix.search_bm25("padding");
        let rare = ix.search_bm25("budget");
        assert_eq!(common.len(), 3);
        assert!(rare[0].1 > common[0].1);
        // Tombstoned docs neither score nor count toward N/avgdl.
        ix.remove(1);
        let r = ix.search_bm25("budget");
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].0, 2);
        assert!(ix.search_bm25("").is_empty());
        assert!(ix.search_bm25("missing").is_empty());
    }
}
