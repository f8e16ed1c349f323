//! Immutable index segments and the in-memory memtable that seals into them.
//!
//! The segmented index is LSM-shaped: ingest accumulates postings in a
//! [`MemTable`], and each commit seals the memtable into an immutable
//! [`Segment`]. Because the store allocates node ids monotonically and
//! ingest is serialized, consecutive segments cover *disjoint, ascending*
//! id ranges. That invariant is what makes snapshot lookups cheap: any
//! lookup result within a segment is a subset of that segment's id range, so
//! per-segment results concatenate in segment order into one globally
//! ascending id list — byte-identical to what the single-map
//! [`InvertedIndex`](crate::InvertedIndex) would return.

use crate::postings::{gallop_to, get, intersect_adaptive, put, PostingList};
use crate::tokenize::tokenize_text;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Magic of the one segment file layout. `NMTXSEG2` (no placement
/// sections), `NMTXSEG3` and `NMTXSEG4` (no label postings) are retired:
/// any other magic fails to load, and the owner rebuilds the index from
/// the store.
const SEGMENT_MAGIC: &[u8; 8] = b"NMTXSEG5";

/// First character of every label term. The tokenizer emits only runs of
/// lower-cased alphanumerics, so no text term starts with it.
const LABEL_PREFIX: char = '\0';

/// The term a context labelled `label` is posted under: the reserved
/// prefix, then the whole label lower-cased. A context is the id that
/// governs itself; [`MemTable::add`] posts its label beside its text terms.
pub fn label_term(label: &str) -> String {
    let mut term = String::with_capacity(label.len() + 1);
    term.push(LABEL_PREFIX);
    term.push_str(&label.to_lowercase());
    term
}

/// Where an indexed node sits in the store: its document and its governing
/// context. The index carries one per id, so a query maps a posting to the
/// section it answers for without reading the store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Placement {
    /// Owning document id.
    pub doc: u64,
    /// Governing-context node id: the node's own id for a context, `None`
    /// when no context governs the node. A context is the node itself or
    /// precedes it in document order, so it never exceeds the node's id.
    pub context: Option<u64>,
}

/// The per-id columns of a memtable or segment, each parallel to `ids`.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Columns {
    ids: Vec<u64>,
    /// Token count per id (BM25 length normalization).
    lengths: Vec<u32>,
    /// Owning document per id.
    docs: Vec<u64>,
    /// Distance back from the id to its governing context, plus one;
    /// 0 when no context governs it.
    back: Vec<u64>,
}

impl Columns {
    /// Appends one id; `false` (nothing stored) when the context follows
    /// the id.
    fn push(&mut self, id: u64, length: u32, placement: Placement) -> bool {
        let back = match placement.context {
            None => 0,
            Some(c) => match id.checked_sub(c).and_then(|d| d.checked_add(1)) {
                Some(b) => b,
                None => return false,
            },
        };
        self.ids.push(id);
        self.lengths.push(length);
        self.docs.push(placement.doc);
        self.back.push(back);
        true
    }

    /// Copies entry `i` of `from` (compaction carries entries verbatim).
    pub(crate) fn push_from(&mut self, from: &Columns, i: usize) {
        self.ids.push(from.ids[i]);
        self.lengths.push(from.lengths[i]);
        self.docs.push(from.docs[i]);
        self.back.push(from.back[i]);
    }

    pub(crate) fn ids(&self) -> &[u64] {
        &self.ids
    }

    fn placement(&self, i: usize) -> Placement {
        let back = self.back[i];
        Placement {
            doc: self.docs[i],
            context: (back > 0).then(|| self.ids[i] - (back - 1)),
        }
    }
}

/// The active in-memory run: postings for documents added since the last
/// commit. Sealing is a move — the memtable's maps become the segment's.
#[derive(Debug, Default)]
pub struct MemTable {
    terms: BTreeMap<String, PostingList>,
    cols: Columns,
    postings: usize,
}

impl MemTable {
    /// Empty memtable.
    pub fn new() -> MemTable {
        MemTable::default()
    }

    /// Indexes `text` under `id`, placed at `placement`. An id that is its
    /// own context also gets a posting under [`label_term`]`(text)`, which
    /// adds nothing to its token count. Ids must ascend within the
    /// memtable, and a placement's context may not exceed its id;
    /// violations are reported as `false` and skipped. (The owning
    /// [`SegmentedIndex`](crate::SegmentedIndex) additionally enforces
    /// ascent across sealed segments.)
    pub fn add(&mut self, id: u64, placement: Placement, text: &str) -> bool {
        if self.cols.ids.last().is_some_and(|&last| id <= last) {
            return false;
        }
        let mut per_term: HashMap<String, Vec<u32>> = HashMap::new();
        let mut tokens = 0u32;
        for tok in tokenize_text(text) {
            per_term.entry(tok.term).or_default().push(tok.position);
            tokens += 1;
        }
        if !self.cols.push(id, tokens, placement) {
            return false;
        }
        if placement.context == Some(id) {
            per_term.insert(label_term(text), vec![0]);
        }
        for (term, positions) in per_term {
            let pl = self.terms.entry(term).or_default();
            pl.push(id, &positions);
            self.postings += 1;
        }
        true
    }

    /// Number of documents buffered.
    pub fn len(&self) -> usize {
        self.cols.ids.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.cols.ids.is_empty()
    }

    /// True when `id` is buffered in this memtable.
    pub fn contains(&self, id: u64) -> bool {
        self.cols.ids.binary_search(&id).is_ok()
    }

    /// Seals the memtable into an immutable segment with identity `seg_id`,
    /// leaving the memtable empty.
    pub fn seal(&mut self, seg_id: u64) -> Segment {
        let taken = std::mem::take(self);
        Segment::from_parts(seg_id, taken.terms, taken.cols, taken.postings)
    }
}

/// One immutable sorted run of the index: a term → posting-list map plus
/// the ascending list of node ids it covers, each with its token count and
/// placement. Never mutated after sealing; compaction replaces segments
/// wholesale instead.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    id: u64,
    terms: BTreeMap<String, PostingList>,
    cols: Columns,
    /// Sum of the token counts (avgdl numerator, precomputed at seal time).
    length_total: u64,
    postings: usize,
}

impl Segment {
    /// Builds a segment from its parts (sealing and compaction merges).
    pub(crate) fn from_parts(
        id: u64,
        terms: BTreeMap<String, PostingList>,
        cols: Columns,
        postings: usize,
    ) -> Segment {
        let length_total = cols.lengths.iter().map(|&l| l as u64).sum();
        Segment {
            id,
            terms,
            cols,
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
        self.cols.ids.first().copied()
    }

    /// Largest node id covered, if any.
    pub fn max_id(&self) -> Option<u64> {
        self.cols.ids.last().copied()
    }

    /// Number of documents in the segment (tombstones are tracked at the
    /// snapshot level, not here).
    pub fn len(&self) -> usize {
        self.cols.ids.len()
    }

    /// True when the segment covers no documents.
    pub fn is_empty(&self) -> bool {
        self.cols.ids.is_empty()
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
        &self.cols.ids
    }

    /// True when `id` is covered by this segment.
    pub fn contains(&self, id: u64) -> bool {
        self.cols.ids.binary_search(&id).is_ok()
    }

    /// Token count and placement of `id`, if this segment covers it.
    pub fn entry(&self, id: u64) -> Option<(u32, Placement)> {
        let i = self.cols.ids.binary_search(&id).ok()?;
        Some((self.cols.lengths[i], self.cols.placement(i)))
    }

    /// [`Segment::entry`] for ids looked up in ascending order: `cursor`
    /// carries the search position from one call to the next, so a walk
    /// over a posting list or a match list gallops forward through the id
    /// column instead of searching all of it for every id.
    pub(crate) fn entry_from(&self, cursor: &mut usize, id: u64) -> Option<(u32, Placement)> {
        *cursor = gallop_to(&self.cols.ids, *cursor, id);
        let i = *cursor;
        (self.cols.ids.get(i) == Some(&id)).then(|| (self.cols.lengths[i], self.cols.placement(i)))
    }

    /// Token counts per covered id, parallel to [`Segment::ids`].
    pub fn lengths(&self) -> &[u32] {
        &self.cols.lengths
    }

    /// The per-id columns (compaction carries them entry by entry).
    pub(crate) fn columns(&self) -> &Columns {
        &self.cols
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

    /// Ids in this segment holding the phrase `terms`, ascending
    /// (tombstones not applied): one term is its posting list, several must
    /// occur consecutively, and no terms match nothing. Segments cover
    /// disjoint id ranges, so per-segment answers concatenate into the
    /// answer over one merged index.
    pub fn phrase_ids(&self, terms: &[String]) -> Vec<u64> {
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
            if candidates.is_empty() {
                return candidates;
            }
            candidates = intersect_adaptive(&candidates, &l.ids());
        }
        if rest.is_empty() || candidates.is_empty() {
            return candidates;
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
                per_term[1..].iter().enumerate().all(|(i, ps)| {
                    p0.checked_add(i as u32 + 1)
                        .is_some_and(|p| ps.binary_search(&p).is_ok())
                })
            })
        });
        candidates
    }

    /// Serializes the segment in the one on-disk layout (`NMTXSEG5`): the
    /// segment id, each term with its posting list, the id section (delta
    /// varints), then one varint per id in each of the length section, the
    /// doc section (zigzag delta from the previous id's doc) and the
    /// context section (distance back to the governing context plus one,
    /// 0 for none).
    pub fn serialize(&self) -> Vec<u8> {
        let c = &self.cols;
        let mut buf = Vec::with_capacity(self.byte_size() + 4 * c.ids.len() + 1024);
        buf.extend_from_slice(SEGMENT_MAGIC);
        put(&mut buf, self.id);
        put(&mut buf, self.terms.len() as u64);
        for (term, pl) in &self.terms {
            put(&mut buf, term.len() as u64);
            buf.extend_from_slice(term.as_bytes());
            pl.serialize(&mut buf);
        }
        put(&mut buf, c.ids.len() as u64);
        let mut prev = 0u64;
        for &id in &c.ids {
            put(&mut buf, id - prev);
            prev = id;
        }
        for &l in &c.lengths {
            put(&mut buf, l as u64);
        }
        let mut prev = 0u64;
        for &doc in &c.docs {
            put(&mut buf, zigzag(doc.wrapping_sub(prev)));
            prev = doc;
        }
        for &b in &c.back {
            put(&mut buf, b);
        }
        buf
    }

    /// Inverse of [`Segment::serialize`]; `None` on corrupt input or any
    /// other magic (the owner then rebuilds the index from the store).
    /// Total: counts are bounded by the bytes left to hold them, arithmetic
    /// is checked, ids must strictly ascend, contexts may not follow their
    /// ids, and the input must be consumed exactly.
    pub fn deserialize(buf: &[u8]) -> Option<Segment> {
        if buf.get(..8)? != SEGMENT_MAGIC {
            return None;
        }
        let mut pos = 8usize;
        let id = get(buf, &mut pos)?;
        // A term takes at least four bytes (its length and the posting
        // list's three header varints).
        let nterms = usize::try_from(get(buf, &mut pos)?).ok()?;
        if nterms > (buf.len() - pos) / 4 {
            return None;
        }
        let mut terms = BTreeMap::new();
        let mut postings = 0usize;
        for _ in 0..nterms {
            let tlen = usize::try_from(get(buf, &mut pos)?).ok()?;
            let end = pos.checked_add(tlen).filter(|&e| e <= buf.len())?;
            let term = std::str::from_utf8(&buf[pos..end]).ok()?.to_string();
            pos = end;
            let pl = PostingList::deserialize(buf, &mut pos)?;
            postings += pl.len();
            terms.insert(term, pl);
        }
        // Each id takes at least one byte in each of its four sections.
        let nids = usize::try_from(get(buf, &mut pos)?).ok()?;
        if nids > (buf.len() - pos) / 4 {
            return None;
        }
        let mut cols = Columns {
            ids: Vec::with_capacity(nids),
            lengths: Vec::with_capacity(nids),
            docs: Vec::with_capacity(nids),
            back: Vec::with_capacity(nids),
        };
        let mut prev = 0u64;
        for i in 0..nids {
            let gap = get(buf, &mut pos)?;
            if i > 0 && gap == 0 {
                return None;
            }
            prev = prev.checked_add(gap)?;
            cols.ids.push(prev);
        }
        for _ in 0..nids {
            cols.lengths.push(u32::try_from(get(buf, &mut pos)?).ok()?);
        }
        let mut prev = 0u64;
        for _ in 0..nids {
            prev = prev.wrapping_add(unzigzag(get(buf, &mut pos)?));
            cols.docs.push(prev);
        }
        for &id in &cols.ids {
            let back = get(buf, &mut pos)?;
            if back > 0 && back - 1 > id {
                return None;
            }
            cols.back.push(back);
        }
        if pos != buf.len() {
            return None;
        }
        Some(Segment::from_parts(id, terms, cols, postings))
    }
}

/// Position of the segment covering `id` in a chain of disjoint, ascending
/// id ranges, if any segment covers it.
pub(crate) fn segment_of(segments: &[Arc<Segment>], id: u64) -> Option<usize> {
    let idx = segments.partition_point(|s| s.max_id().is_some_and(|m| m < id));
    segments
        .get(idx)
        .is_some_and(|s| s.contains(id))
        .then_some(idx)
}

/// Maps a wrapped difference to a small varint whichever way it went.
fn zigzag(d: u64) -> u64 {
    (d << 1) ^ ((d as i64) >> 63) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query_terms;

    /// Node `id` of document `doc`, governed by context `ctx`.
    fn at(doc: u64, ctx: Option<u64>) -> Placement {
        Placement { doc, context: ctx }
    }

    fn sealed() -> Segment {
        let mut mt = MemTable::new();
        mt.add(1, at(1, Some(1)), "The space shuttle program");
        mt.add(2, at(1, Some(1)), "Shuttle engine anomaly report");
        mt.add(3, at(2, None), "Budget overview for the technology gap");
        mt.add(4, at(2, Some(3)), "The technology gap is shrinking fast");
        mt.seal(7)
    }

    #[test]
    fn memtable_seals_into_segment() {
        let mut mt = MemTable::new();
        assert!(mt.is_empty());
        assert!(mt.add(5, at(1, Some(5)), "alpha beta"));
        assert!(!mt.add(5, at(1, None), "dup"), "non-ascending add rejected");
        assert!(
            !mt.add(8, at(1, Some(9)), "x"),
            "context after its id rejected"
        );
        assert!(mt.add(9, at(1, Some(5)), "beta gamma"));
        assert_eq!(mt.len(), 2);
        let seg = mt.seal(1);
        assert!(mt.is_empty(), "seal drains the memtable");
        assert_eq!(seg.id(), 1);
        assert_eq!(seg.len(), 2);
        assert_eq!(seg.min_id(), Some(5));
        assert_eq!(seg.max_id(), Some(9));
        assert!(seg.contains(9));
        assert!(!seg.contains(6));
        assert!(!seg.contains(8), "a rejected add leaves nothing behind");
        assert_eq!(seg.phrase_ids(&["beta".into()]), vec![5, 9]);
        assert_eq!(seg.entry(9), Some((2, at(1, Some(5)))));
    }

    #[test]
    fn segment_eval_matches_inverted_index() {
        let seg = sealed();
        let mut ix = crate::InvertedIndex::new();
        ix.add(1, "The space shuttle program");
        ix.add(2, "Shuttle engine anomaly report");
        ix.add(3, "Budget overview for the technology gap");
        ix.add(4, "The technology gap is shrinking fast");
        for text in [
            "shuttle",
            "missing",
            "the",
            "technology gap",
            "gap technology",
            "the technology gap is",
            "technology missing",
            "",
        ] {
            let terms = query_terms(text);
            assert_eq!(seg.phrase_ids(&terms), ix.phrase(&terms), "{text:?}");
        }
    }

    #[test]
    fn serialize_round_trip() {
        let seg = sealed();
        let buf = seg.serialize();
        assert_eq!(&buf[..8], b"NMTXSEG5");
        let back = Segment::deserialize(&buf).expect("round trip");
        assert_eq!(back, seg);
        assert_eq!(back.length_total(), seg.length_total());
        assert_eq!(back.entry(3), Some((6, at(2, None))));
        assert_eq!(back.entry(4), Some((6, at(2, Some(3)))));
        assert!(Segment::deserialize(&buf[..buf.len() - 1]).is_none());
        assert!(Segment::deserialize(b"garbage").is_none());
    }

    #[test]
    fn placements_round_trip_at_the_extremes() {
        let mut mt = MemTable::new();
        mt.add(0, at(u64::MAX, Some(0)), "first");
        mt.add(7, at(0, None), "back to doc zero");
        mt.add(u64::MAX - 1, at(3, Some(0)), "far from its context");
        mt.add(u64::MAX, at(3, Some(u64::MAX)), "its own context");
        let seg = mt.seal(1);
        assert_eq!(Segment::deserialize(&seg.serialize()), Some(seg.clone()));
        assert_eq!(seg.entry(u64::MAX - 1), Some((4, at(3, Some(0)))));
        assert_eq!(seg.entry(u64::MAX), Some((3, at(3, Some(u64::MAX)))));
    }

    #[test]
    fn any_other_magic_is_rejected() {
        let buf = sealed().serialize();
        for magic in [
            b"NMTXSEG2",
            b"NMTXSEG3",
            b"NMTXSEG4",
            b"NMTXSEG9",
            b"NMTXMAN1",
        ] {
            let mut other = buf.clone();
            other[..8].copy_from_slice(magic);
            assert!(Segment::deserialize(&other).is_none(), "{magic:?}");
        }
    }

    /// A decoded segment is well-formed when it re-encodes to itself and
    /// term, phrase and per-id lookups run on it.
    fn assert_well_formed(seg: &Segment) {
        assert_eq!(Segment::deserialize(&seg.serialize()).as_ref(), Some(seg));
        for text in ["technology", "technology gap", "the technology gap is"] {
            let _ = seg.phrase_ids(&query_terms(text));
        }
        for &id in seg.ids() {
            let (_, p) = seg.entry(id).expect("covered id has an entry");
            assert!(p.context.is_none_or(|c| c <= id));
        }
        for (_, pl) in seg.terms() {
            assert_eq!(pl.iter().count(), pl.len());
        }
    }

    #[test]
    fn corrupt_segments_never_panic() {
        let buf = sealed().serialize();
        for cut in 0..buf.len() {
            assert!(Segment::deserialize(&buf[..cut]).is_none(), "cut at {cut}");
        }
        for i in 0..buf.len() {
            for mask in [0x01u8, 0x40, 0x80, 0xff] {
                let mut bad = buf.clone();
                bad[i] ^= mask;
                if let Some(seg) = Segment::deserialize(&bad) {
                    assert_well_formed(&seg);
                }
            }
        }
    }

    #[test]
    fn a_context_posts_its_whole_label() {
        let mut mt = MemTable::new();
        mt.add(1, at(1, Some(1)), "Budget Overview");
        mt.add(2, at(1, Some(1)), "budget overview");
        mt.add(3, at(1, Some(3)), "BUDGET OVERVIEW");
        mt.add(4, at(1, Some(4)), "  ");
        let seg = mt.seal(1);
        let label = |l: &str| seg.phrase_ids(&[label_term(l)]);
        assert_eq!(label("budget overview"), vec![1, 3], "contexts only");
        assert_eq!(label("Budget Overview"), vec![1, 3], "case-insensitive");
        assert_eq!(label("budget"), Vec::<u64>::new(), "the whole label");
        assert_eq!(label("  "), vec![4], "a blank label is still a label");
        assert_eq!(seg.phrase_ids(&query_terms("budget")), vec![1, 2, 3]);
        assert_eq!(seg.lengths(), &[2, 2, 2, 0], "no token for the label");
        assert_eq!(seg.postings(), 9);
        assert_eq!(Segment::deserialize(&seg.serialize()), Some(seg.clone()));
        for (term, _) in seg.terms() {
            let from_text = query_terms(term).concat() == term;
            assert!(from_text != term.starts_with(LABEL_PREFIX), "{term:?}");
        }
    }

    #[test]
    fn length_stats_follow_token_counts() {
        let mut mt = MemTable::new();
        mt.add(5, at(1, None), "alpha beta");
        mt.add(9, at(1, None), "alpha alpha alpha beta gamma");
        let seg = mt.seal(1);
        assert_eq!(seg.entry(5).map(|e| e.0), Some(2));
        assert_eq!(seg.entry(9).map(|e| e.0), Some(5));
        assert_eq!(seg.entry(6), None);
        assert_eq!(seg.lengths(), &[2, 5]);
        assert_eq!(seg.length_total(), 7);
    }
}
