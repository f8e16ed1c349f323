//! Immutable index segments and the in-memory memtable that seals into them.
//!
//! The segmented index is LSM-shaped: ingest accumulates postings in a
//! [`MemTable`], and each commit seals the memtable into an immutable
//! [`Segment`]. Because the store allocates node ids monotonically and
//! ingest is serialized, consecutive segments cover *disjoint, ascending*
//! id ranges. That invariant is what makes snapshot evaluation cheap: any
//! query result within a segment is a subset of that segment's id range, so
//! per-segment results concatenate in segment order into one globally
//! ascending id list — byte-identical to what the single-map
//! [`InvertedIndex`](crate::InvertedIndex) would return.

use crate::postings::{difference, get, intersect_adaptive, kway_union, put, PostingList};
use crate::tokenize::tokenize_text;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Magic of the one segment file layout.
const SEGMENT_MAGIC: &[u8; 8] = b"NMTXSEG2";

/// The active in-memory run: postings for documents added since the last
/// commit. Sealing is a move — the memtable's maps become the segment's.
#[derive(Debug, Default)]
pub struct MemTable {
    terms: BTreeMap<String, PostingList>,
    ids: Vec<u64>,
    /// Token count per id, parallel to `ids` (BM25 length normalization).
    lengths: Vec<u32>,
    postings: usize,
}

impl MemTable {
    /// Empty memtable.
    pub fn new() -> MemTable {
        MemTable::default()
    }

    /// Indexes `text` under `id`. Ids must ascend within the memtable;
    /// violations are reported as `false` and skipped. (The owning
    /// [`SegmentedIndex`](crate::SegmentedIndex) additionally enforces
    /// ascent across sealed segments.)
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

    /// Number of documents buffered.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// True when `id` is buffered in this memtable.
    pub fn contains(&self, id: u64) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// Seals the memtable into an immutable segment with identity `seg_id`,
    /// leaving the memtable empty.
    pub fn seal(&mut self, seg_id: u64) -> Segment {
        let taken = std::mem::take(self);
        let length_total = taken.lengths.iter().map(|&l| l as u64).sum();
        Segment {
            id: seg_id,
            terms: taken.terms,
            ids: taken.ids,
            lengths: taken.lengths,
            length_total,
            postings: taken.postings,
        }
    }
}

/// One immutable sorted run of the index: a term → posting-list map plus
/// the ascending list of node ids it covers. Never mutated after sealing;
/// compaction replaces segments wholesale instead.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    id: u64,
    terms: BTreeMap<String, PostingList>,
    ids: Vec<u64>,
    /// Token count per id, parallel to `ids`. Stored segment metadata so
    /// ranked (BM25) search can length-normalize without rescanning
    /// postings per query.
    lengths: Vec<u32>,
    /// Sum of `lengths` (avgdl numerator, precomputed at seal time).
    length_total: u64,
    postings: usize,
}

impl Segment {
    /// Builds a segment directly from parts (compaction merges). Length
    /// statistics are recomputed from the postings: a doc's token count is
    /// exactly the sum of its position counts across terms, since every
    /// token lands as one position entry in exactly one term's posting.
    pub(crate) fn from_parts(
        id: u64,
        terms: BTreeMap<String, PostingList>,
        ids: Vec<u64>,
        postings: usize,
    ) -> Segment {
        let lengths = lengths_from_postings(&terms, &ids);
        let length_total = lengths.iter().map(|&l| l as u64).sum();
        Segment {
            id,
            terms,
            ids,
            lengths,
            length_total,
            postings,
        }
    }

    /// Segment identity (unique within one index lifetime; names the
    /// on-disk file).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Smallest node id covered, if any.
    pub fn min_id(&self) -> Option<u64> {
        self.ids.first().copied()
    }

    /// Largest node id covered, if any.
    pub fn max_id(&self) -> Option<u64> {
        self.ids.last().copied()
    }

    /// Number of documents in the segment (tombstones are tracked at the
    /// snapshot level, not here).
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the segment covers no documents.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Total postings stored.
    pub fn postings(&self) -> usize {
        self.postings
    }

    /// Number of distinct terms.
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// Compressed bytes across posting lists.
    pub fn byte_size(&self) -> usize {
        self.terms.values().map(|p| p.byte_size()).sum()
    }

    /// All node ids covered, ascending.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// True when `id` is covered by this segment.
    pub fn contains(&self, id: u64) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// Token count of `id`, if this segment covers it.
    pub fn length_of(&self, id: u64) -> Option<u32> {
        self.ids.binary_search(&id).ok().map(|i| self.lengths[i])
    }

    /// Token counts per covered id, parallel to [`Segment::ids`].
    pub fn lengths(&self) -> &[u32] {
        &self.lengths
    }

    /// Total token count across covered ids (the avgdl numerator).
    pub fn length_total(&self) -> u64 {
        self.length_total
    }

    /// Iterates `(term, posting list)` pairs in term order (compaction and
    /// ranked search).
    pub fn terms(&self) -> impl Iterator<Item = (&str, &PostingList)> {
        self.terms.iter().map(|(t, pl)| (t.as_str(), pl))
    }

    /// Posting list for one term, if present.
    pub fn posting(&self, term: &str) -> Option<&PostingList> {
        self.terms.get(term)
    }

    /// Evaluates `query` against this segment only, returning matching ids
    /// ascending (tombstones not applied). Set operations distribute over
    /// the disjoint segment id ranges, so evaluating per segment and
    /// concatenating is equivalent to evaluating against one merged index.
    pub fn eval(&self, query: &crate::TextQuery) -> Cow<'_, [u64]> {
        match self.eval_inner(query) {
            Eval::Ids(v) => Cow::Owned(v),
            Eval::All => Cow::Borrowed(self.ids.as_slice()),
        }
    }

    fn term_ids(&self, term: &str) -> Vec<u64> {
        self.terms.get(term).map(|p| p.ids()).unwrap_or_default()
    }

    fn eval_inner(&self, query: &crate::TextQuery) -> Eval {
        use crate::TextQuery;
        match query {
            TextQuery::Term(t) => Eval::Ids(self.term_ids(t)),
            TextQuery::All => Eval::All,
            TextQuery::And(qs) => {
                // `All` is the identity for intersection — drop those
                // operands instead of materializing the universe. The rest
                // are intersected smallest-first (selectivity order) with an
                // adaptive galloping merge, so one rare term prunes the
                // whole conjunction cheaply.
                let mut lists: Vec<Vec<u64>> = Vec::with_capacity(qs.len());
                for q in qs {
                    match self.eval_inner(q) {
                        Eval::All => continue,
                        Eval::Ids(v) => {
                            if v.is_empty() {
                                return Eval::Ids(Vec::new());
                            }
                            lists.push(v);
                        }
                    }
                }
                match lists.len() {
                    0 => Eval::All,
                    1 => Eval::Ids(lists.pop().expect("len checked")),
                    _ => {
                        lists.sort_by_key(|l| l.len());
                        let mut it = lists.into_iter();
                        let mut acc = it.next().expect("len checked");
                        for l in it {
                            if acc.is_empty() {
                                break;
                            }
                            acc = intersect_adaptive(&acc, &l);
                        }
                        Eval::Ids(acc)
                    }
                }
            }
            TextQuery::Or(qs) => {
                let mut lists: Vec<Vec<u64>> = Vec::with_capacity(qs.len());
                for q in qs {
                    match self.eval_inner(q) {
                        // Union with the universe is the universe.
                        Eval::All => return Eval::All,
                        Eval::Ids(v) => lists.push(v),
                    }
                }
                Eval::Ids(kway_union(&lists))
            }
            TextQuery::Not(a, b) => {
                let b = match self.eval_inner(b) {
                    // Everything matches `b`: nothing survives (every eval
                    // result is a subset of the segment's universe).
                    Eval::All => return Eval::Ids(Vec::new()),
                    Eval::Ids(v) => v,
                };
                let out = match self.eval_inner(a) {
                    // Stream the difference off the stored id slice rather
                    // than cloning the universe first.
                    Eval::All => difference(&self.ids, &b),
                    Eval::Ids(a) => difference(&a, &b),
                };
                Eval::Ids(out)
            }
            TextQuery::Prefix(p) => {
                let lists: Vec<Vec<u64>> = self
                    .terms
                    .range::<str, _>((
                        std::ops::Bound::Included(p.as_str()),
                        std::ops::Bound::Unbounded,
                    ))
                    .take_while(|(t, _)| t.starts_with(p.as_str()))
                    .map(|(_, pl)| pl.ids())
                    .collect();
                Eval::Ids(kway_union(&lists))
            }
            TextQuery::Phrase(terms) => self.eval_phrase(terms),
        }
    }

    fn eval_phrase(&self, terms: &[String]) -> Eval {
        if terms.is_empty() {
            return Eval::All;
        }
        if terms.len() == 1 {
            return Eval::Ids(self.term_ids(&terms[0]));
        }
        let lists: Vec<&PostingList> = match terms
            .iter()
            .map(|t| self.terms.get(t))
            .collect::<Option<Vec<_>>>()
        {
            Some(l) => l,
            None => return Eval::Ids(Vec::new()),
        };
        let mut candidates = lists[0].ids();
        for l in &lists[1..] {
            candidates = intersect_adaptive(&candidates, &l.ids());
            if candidates.is_empty() {
                return Eval::Ids(candidates);
            }
        }
        let cand: HashSet<u64> = candidates.iter().copied().collect();
        let mut positions: HashMap<u64, Vec<Vec<u32>>> = cand
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
        let mut out: Vec<u64> = positions
            .into_iter()
            .filter(|(_, per_term)| {
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
        Eval::Ids(out)
    }

    /// Serializes the segment in the one on-disk layout (`NMTXSEG2`): the
    /// segment id, each term with its posting list, the id section
    /// (delta varints), then the length section (one varint per id).
    pub fn serialize(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.byte_size() + 1024);
        buf.extend_from_slice(SEGMENT_MAGIC);
        put(&mut buf, self.id);
        put(&mut buf, self.terms.len() as u64);
        for (term, pl) in &self.terms {
            put(&mut buf, term.len() as u64);
            buf.extend_from_slice(term.as_bytes());
            pl.serialize(&mut buf);
        }
        put(&mut buf, self.ids.len() as u64);
        let mut prev = 0u64;
        for (i, &id) in self.ids.iter().enumerate() {
            put(&mut buf, if i == 0 { id } else { id - prev });
            prev = id;
        }
        for &l in &self.lengths {
            put(&mut buf, l as u64);
        }
        buf
    }

    /// Inverse of [`Segment::serialize`]; `None` on corrupt input or any
    /// other magic (the owner then rebuilds the index from the store).
    pub fn deserialize(buf: &[u8]) -> Option<Segment> {
        if buf.get(..8)? != SEGMENT_MAGIC {
            return None;
        }
        let mut pos = 8usize;
        let id = get(buf, &mut pos)?;
        let nterms = get(buf, &mut pos)? as usize;
        let mut terms = BTreeMap::new();
        let mut postings = 0usize;
        for _ in 0..nterms {
            let tlen = get(buf, &mut pos)? as usize;
            let end = pos.checked_add(tlen).filter(|&e| e <= buf.len())?;
            let term = std::str::from_utf8(&buf[pos..end]).ok()?.to_string();
            pos = end;
            let pl = PostingList::deserialize(buf, &mut pos)?;
            postings += pl.len();
            terms.insert(term, pl);
        }
        let nids = get(buf, &mut pos)? as usize;
        let mut ids = Vec::with_capacity(nids);
        let mut prev = 0u64;
        for i in 0..nids {
            let gap = get(buf, &mut pos)?;
            let idv = if i == 0 { gap } else { prev.checked_add(gap)? };
            ids.push(idv);
            prev = idv;
        }
        let mut lengths = Vec::with_capacity(nids);
        for _ in 0..nids {
            lengths.push(u32::try_from(get(buf, &mut pos)?).ok()?);
        }
        let length_total = lengths.iter().map(|&l| l as u64).sum();
        Some(Segment {
            id,
            terms,
            ids,
            lengths,
            length_total,
            postings,
        })
    }
}

/// Recovers per-id token counts from postings: every token of a doc is one
/// position entry in exactly one term's posting list, so the doc length is
/// the sum of its position counts across terms. Ids with no postings
/// (empty or all-stopword text) count 0.
fn lengths_from_postings(terms: &BTreeMap<String, PostingList>, ids: &[u64]) -> Vec<u32> {
    let mut by_id: HashMap<u64, u32> = HashMap::with_capacity(ids.len());
    for pl in terms.values() {
        for p in pl.iter() {
            *by_id.entry(p.id).or_default() += p.positions.len() as u32;
        }
    }
    ids.iter()
        .map(|id| by_id.get(id).copied().unwrap_or(0))
        .collect()
}

/// Internal evaluation result: either a materialized ascending id list or
/// "every id in the segment" (left symbolic so `All` costs nothing as an
/// `And` operand and `Not` can stream off the stored slice).
enum Eval {
    Ids(Vec<u64>),
    All,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TextQuery;

    fn sealed() -> Segment {
        let mut mt = MemTable::new();
        mt.add(1, "The space shuttle program");
        mt.add(2, "Shuttle engine anomaly report");
        mt.add(3, "Budget overview for the technology gap");
        mt.add(4, "The technology gap is shrinking fast");
        mt.seal(7)
    }

    #[test]
    fn memtable_seals_into_segment() {
        let mut mt = MemTable::new();
        assert!(mt.is_empty());
        assert!(mt.add(5, "alpha beta"));
        assert!(!mt.add(5, "dup"), "non-ascending add rejected");
        assert!(mt.add(9, "beta gamma"));
        assert_eq!(mt.len(), 2);
        let seg = mt.seal(1);
        assert!(mt.is_empty(), "seal drains the memtable");
        assert_eq!(seg.id(), 1);
        assert_eq!(seg.len(), 2);
        assert_eq!(seg.min_id(), Some(5));
        assert_eq!(seg.max_id(), Some(9));
        assert!(seg.contains(9));
        assert!(!seg.contains(6));
        assert_eq!(seg.eval(&TextQuery::Term("beta".into())).as_ref(), &[5, 9]);
    }

    #[test]
    fn segment_eval_matches_inverted_index() {
        let seg = sealed();
        let mut ix = crate::InvertedIndex::new();
        ix.add(1, "The space shuttle program");
        ix.add(2, "Shuttle engine anomaly report");
        ix.add(3, "Budget overview for the technology gap");
        ix.add(4, "The technology gap is shrinking fast");
        let queries = vec![
            TextQuery::Term("shuttle".into()),
            TextQuery::Term("missing".into()),
            TextQuery::All,
            TextQuery::And(vec![]),
            TextQuery::And(vec![TextQuery::All, TextQuery::Term("the".into())]),
            TextQuery::keywords("technology gap"),
            TextQuery::Or(vec![
                TextQuery::Term("budget".into()),
                TextQuery::Term("engine".into()),
                TextQuery::All,
            ]),
            TextQuery::Not(
                Box::new(TextQuery::All),
                Box::new(TextQuery::Term("shuttle".into())),
            ),
            TextQuery::Not(
                Box::new(TextQuery::Term("the".into())),
                Box::new(TextQuery::All),
            ),
            TextQuery::phrase("technology gap"),
            TextQuery::phrase("gap technology"),
            TextQuery::Prefix("shut".into()),
            TextQuery::Prefix("t".into()),
            TextQuery::Prefix("zz".into()),
        ];
        for q in &queries {
            assert_eq!(seg.eval(q).as_ref(), ix.execute(q).as_slice(), "{q:?}");
        }
    }

    #[test]
    fn serialize_round_trip() {
        let seg = sealed();
        let buf = seg.serialize();
        assert_eq!(&buf[..8], b"NMTXSEG2");
        let back = Segment::deserialize(&buf).expect("round trip");
        assert_eq!(back, seg);
        assert_eq!(back.length_total(), seg.length_total());
        assert!(Segment::deserialize(&buf[..buf.len() - 1]).is_none());
        assert!(Segment::deserialize(b"garbage").is_none());
    }

    #[test]
    fn any_other_magic_is_rejected() {
        let buf = sealed().serialize();
        for magic in [b"NMTXSEG9", b"NMTXMAN1"] {
            let mut other = buf.clone();
            other[..8].copy_from_slice(magic);
            assert!(Segment::deserialize(&other).is_none(), "{magic:?}");
        }
    }

    #[test]
    fn length_stats_follow_token_counts() {
        let mut mt = MemTable::new();
        mt.add(5, "alpha beta");
        mt.add(9, "alpha alpha alpha beta gamma");
        let seg = mt.seal(1);
        assert_eq!(seg.length_of(5), Some(2));
        assert_eq!(seg.length_of(9), Some(5));
        assert_eq!(seg.length_of(6), None);
        assert_eq!(seg.lengths(), &[2, 5]);
        assert_eq!(seg.length_total(), 7);
    }

    #[test]
    fn from_parts_recomputes_lengths_from_postings() {
        // The compaction path carries no length section; the
        // recomputed stats must match what sealing counted directly.
        let seg = sealed();
        let rebuilt =
            Segment::from_parts(seg.id(), seg.terms.clone(), seg.ids.clone(), seg.postings());
        assert_eq!(rebuilt, seg);
        assert_eq!(rebuilt.length_total(), seg.length_total());
    }
}
