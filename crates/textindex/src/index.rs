//! The query language and the single-map reference index.
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

use crate::postings::{difference, intersect, kway_union, union, PostingList};
use crate::tokenize::{query_terms, tokenize_text};
use std::collections::{BTreeMap, HashMap, HashSet};

/// A boolean / phrase / prefix query over the index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TextQuery {
    /// Single term (tokenized form).
    Term(String),
    /// All sub-queries must match.
    And(Vec<TextQuery>),
    /// Any sub-query matches.
    Or(Vec<TextQuery>),
    /// Matches of the first minus matches of the second.
    Not(Box<TextQuery>, Box<TextQuery>),
    /// Terms must occur consecutively.
    Phrase(Vec<String>),
    /// Any term starting with the prefix.
    Prefix(String),
    /// Matches every indexed node (identity for `And`).
    All,
}

impl TextQuery {
    /// Parses free text into a query: multiple words become a phrase-or-AND
    /// query — the phrase match is preferred but NETMARK's keyword search
    /// ANDs terms (paper: `Content=Shuttle` returns docs *containing* the
    /// term).
    pub fn keywords(text: &str) -> TextQuery {
        let terms = query_terms(text);
        match terms.len() {
            0 => TextQuery::All,
            1 => TextQuery::Term(terms.into_iter().next().expect("len checked")),
            _ => TextQuery::And(terms.into_iter().map(TextQuery::Term).collect()),
        }
    }

    /// Parses free text into an exact phrase query.
    pub fn phrase(text: &str) -> TextQuery {
        let terms = query_terms(text);
        match terms.len() {
            0 => TextQuery::All,
            1 => TextQuery::Term(terms.into_iter().next().expect("len checked")),
            _ => TextQuery::Phrase(terms),
        }
    }
}

/// An in-memory inverted index over `(node id → text)` pairs — the
/// reference the segmented index is tested against.
#[derive(Debug, Default)]
pub struct InvertedIndex {
    /// Ordered so prefix queries can range-scan.
    terms: BTreeMap<String, PostingList>,
    /// Ids whose postings must be ignored (lazy deletion).
    tombstones: HashSet<u64>,
    /// All indexed ids, ascending (for `All` and `Not`).
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

    fn live(&self, ids: Vec<u64>) -> Vec<u64> {
        if self.tombstones.is_empty() {
            return ids;
        }
        ids.into_iter()
            .filter(|id| !self.tombstones.contains(id))
            .collect()
    }

    fn term_ids(&self, term: &str) -> Vec<u64> {
        self.terms.get(term).map(|p| p.ids()).unwrap_or_default()
    }

    /// Evaluates `query`, returning live node ids ascending.
    pub fn execute(&self, query: &TextQuery) -> Vec<u64> {
        let raw = self.eval(query);
        self.live(raw)
    }

    fn eval(&self, query: &TextQuery) -> Vec<u64> {
        match query {
            TextQuery::Term(t) => self.term_ids(t),
            TextQuery::All => self.ids.clone(),
            TextQuery::And(qs) => {
                if qs.is_empty() {
                    return self.ids.clone();
                }
                let mut acc = self.eval(&qs[0]);
                for q in &qs[1..] {
                    if acc.is_empty() {
                        break;
                    }
                    acc = intersect(&acc, &self.eval(q));
                }
                acc
            }
            TextQuery::Or(qs) => {
                let mut acc = Vec::new();
                for q in qs {
                    acc = union(&acc, &self.eval(q));
                }
                acc
            }
            TextQuery::Not(a, b) => difference(&self.eval(a), &self.eval(b)),
            TextQuery::Prefix(p) => {
                // One k-way merge over all matching posting lists instead of
                // repeated pairwise union (which is O(k²) in the number of
                // matching terms).
                let lists: Vec<Vec<u64>> = self
                    .terms
                    .range::<str, _>((
                        std::ops::Bound::Included(p.as_str()),
                        std::ops::Bound::Unbounded,
                    ))
                    .take_while(|(t, _)| t.starts_with(p.as_str()))
                    .map(|(_, pl)| pl.ids())
                    .collect();
                kway_union(&lists)
            }
            TextQuery::Phrase(terms) => self.eval_phrase(terms),
        }
    }

    fn eval_phrase(&self, terms: &[String]) -> Vec<u64> {
        if terms.is_empty() {
            return self.ids.clone();
        }
        if terms.len() == 1 {
            return self.term_ids(&terms[0]);
        }
        // Decode positions for candidate ids only.
        let lists: Vec<&PostingList> = match terms
            .iter()
            .map(|t| self.terms.get(t))
            .collect::<Option<Vec<_>>>()
        {
            Some(l) => l,
            None => return Vec::new(),
        };
        let mut candidates = lists[0].ids();
        for l in &lists[1..] {
            candidates = intersect(&candidates, &l.ids());
            if candidates.is_empty() {
                return candidates;
            }
        }
        let cand: HashSet<u64> = candidates.iter().copied().collect();
        // id → per-term position sets.
        let positions_init: HashMap<u64, Vec<Vec<u32>>> = cand
            .iter()
            .map(|&id| (id, vec![Vec::new(); terms.len()]))
            .collect();
        let mut positions = positions_init;
        for (ti, l) in lists.iter().enumerate() {
            for p in l.iter() {
                if let Some(slot) = positions.get_mut(&p.id) {
                    slot[ti] = p.positions;
                }
            }
        }
        let mut out: Vec<u64> = positions
            .into_iter()
            .filter(|(_, per_term)| {
                // A phrase match: p0 in term0 with p0+i in term_i for all i.
                let rest: Vec<&Vec<u32>> = per_term[1..].iter().collect();
                per_term[0].iter().any(|&p0| {
                    rest.iter()
                        .enumerate()
                        .all(|(i, ps)| ps.binary_search(&(p0 + i as u32 + 1)).is_ok())
                })
            })
            .map(|(id, _)| id)
            .collect();
        out.sort_unstable();
        out
    }

    /// BM25-ranked search: live ids scored by Okapi BM25, descending
    /// (score ties break on ascending id). Same constants and corpus-stat
    /// definitions as
    /// [`IndexSnapshot::search_bm25`](crate::IndexSnapshot::search_bm25),
    /// computed from the same integer statistics — the two shapes return
    /// identical scores over the same documents.
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

    #[test]
    fn term_query() {
        let ix = sample();
        assert_eq!(ix.execute(&TextQuery::keywords("shuttle")), vec![1, 2]);
        assert_eq!(ix.execute(&TextQuery::keywords("SHUTTLE")), vec![1, 2]);
        assert!(ix.execute(&TextQuery::keywords("mars")).is_empty());
    }

    #[test]
    fn and_or_not() {
        let ix = sample();
        assert_eq!(
            ix.execute(&TextQuery::keywords("technology gap")),
            vec![3, 4]
        );
        let or = TextQuery::Or(vec![
            TextQuery::Term("budget".into()),
            TextQuery::Term("engine".into()),
        ]);
        assert_eq!(ix.execute(&or), vec![2, 3]);
        let not = TextQuery::Not(
            Box::new(TextQuery::Term("the".into())),
            Box::new(TextQuery::Term("shuttle".into())),
        );
        assert_eq!(ix.execute(&not), vec![3, 4]);
    }

    #[test]
    fn phrase_query() {
        let ix = sample();
        assert_eq!(ix.execute(&TextQuery::phrase("technology gap")), vec![3, 4]);
        assert!(
            ix.execute(&TextQuery::phrase("gap technology")).is_empty(),
            "order matters for phrases"
        );
        assert_eq!(
            ix.execute(&TextQuery::phrase("the technology gap is")),
            vec![4]
        );
    }

    #[test]
    fn prefix_query() {
        let ix = sample();
        assert_eq!(ix.execute(&TextQuery::Prefix("shut".into())), vec![1, 2]);
        assert_eq!(ix.execute(&TextQuery::Prefix("t".into())), vec![1, 3, 4]);
        assert!(ix.execute(&TextQuery::Prefix("zz".into())).is_empty());
    }

    #[test]
    fn all_and_empty_keywords() {
        let ix = sample();
        assert_eq!(ix.execute(&TextQuery::All), vec![1, 2, 3, 4]);
        assert_eq!(ix.execute(&TextQuery::keywords("")), vec![1, 2, 3, 4]);
    }

    #[test]
    fn tombstones_hide_results() {
        let mut ix = sample();
        ix.remove(2);
        assert_eq!(ix.execute(&TextQuery::keywords("shuttle")), vec![1]);
        assert_eq!(ix.len(), 3);
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
    fn prefix_kway_matches_many_terms() {
        // Many terms sharing a prefix, each matching overlapping doc sets —
        // exercises the k-way merge path (k > 2).
        let mut ix = InvertedIndex::new();
        for id in 1..=40u64 {
            let text = format!("prefab prefix{} prefetch preflight", id % 7);
            ix.add(id, &text);
        }
        let all: Vec<u64> = (1..=40).collect();
        assert_eq!(ix.execute(&TextQuery::Prefix("pref".into())), all);
        assert_eq!(
            ix.execute(&TextQuery::Prefix("prefix3".into())),
            vec![3, 10, 17, 24, 31, 38]
        );
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
