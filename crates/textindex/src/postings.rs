//! Delta-varint-compressed posting lists.
//!
//! A posting list holds, per term, the ascending sequence of node ids the
//! term occurs in plus the word positions inside each node (for phrase
//! queries). Ids are delta-encoded and everything is LEB128 varints, so a
//! dense list costs ~1–2 bytes per posting.
//!
//! Entry layout in the packed buffer:
//! `id_gap, n_positions, pos_gap*` — all varints; position gaps are deltas
//! within the entry.
//!
//! Appends must be in ascending id order (node ids are assigned
//! monotonically by the store; re-ingesting a document creates fresh ids,
//! and deletions are tombstoned at the index level).
//!
//! [`put`] and [`get`] are the crate's one LEB128 codec: segment files and
//! the segmented-index manifest frame their fields with them too.

/// Appends `v` as LEB128.
pub(crate) fn put(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Reads a LEB128 varint; `None` on truncation.
pub(crate) fn get(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf.get(*pos)?;
        *pos += 1;
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
}

/// One decoded posting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Posting {
    /// Node id the term occurs in.
    pub id: u64,
    /// Ascending word positions of the term within the node text.
    pub positions: Vec<u32>,
}

/// A compressed, append-only posting list.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PostingList {
    packed: Vec<u8>,
    last_id: u64,
    len: usize,
}

impl PostingList {
    /// Empty list.
    pub fn new() -> PostingList {
        PostingList::default()
    }

    /// Number of postings.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no postings are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Compressed size in bytes.
    pub fn byte_size(&self) -> usize {
        self.packed.len()
    }

    /// Appends a posting. `id` must exceed every previously appended id;
    /// `positions` must be ascending. Returns `false` (and stores nothing)
    /// if the ordering contract is violated.
    pub fn push(&mut self, id: u64, positions: &[u32]) -> bool {
        if (self.len > 0 && id <= self.last_id) || positions.is_empty() {
            return false;
        }
        // Positions come from the tokenizer (always ascending); validate
        // before writing so a bad call cannot corrupt the buffer.
        if positions.windows(2).any(|w| w[1] <= w[0]) {
            return false;
        }
        let gap = if self.len == 0 { id } else { id - self.last_id };
        put(&mut self.packed, gap);
        put(&mut self.packed, positions.len() as u64);
        let mut prev = 0u32;
        for (i, &p) in positions.iter().enumerate() {
            put(&mut self.packed, (p - if i == 0 { 0 } else { prev }) as u64);
            prev = p;
        }
        self.last_id = id;
        self.len += 1;
        true
    }

    /// Iterates decoded postings.
    pub fn iter(&self) -> PostingIter<'_> {
        PostingIter {
            buf: &self.packed,
            pos: 0,
            prev_id: 0,
            first: true,
        }
    }

    /// Decodes just the node ids.
    pub fn ids(&self) -> Vec<u64> {
        let mut it = self.iter();
        let mut out = Vec::with_capacity(self.len);
        while let Some((id, _)) = it.next_tf() {
            out.push(id);
        }
        out
    }

    /// Serializes into `out` (length-prefixed packed bytes + metadata).
    pub fn serialize(&self, out: &mut Vec<u8>) {
        put(out, self.len as u64);
        put(out, self.last_id);
        put(out, self.packed.len() as u64);
        out.extend_from_slice(&self.packed);
    }

    /// Inverse of [`PostingList::serialize`]; `None` on corrupt input.
    /// The packed entries are decoded once to check them against the
    /// header: they must fill the byte count exactly, ids must strictly
    /// ascend, positions must be non-empty and strictly ascending, and the
    /// entry count and last id must match.
    pub fn deserialize(buf: &[u8], pos: &mut usize) -> Option<PostingList> {
        let len = usize::try_from(get(buf, pos)?).ok()?;
        let last_id = get(buf, pos)?;
        let nbytes = usize::try_from(get(buf, pos)?).ok()?;
        let end = pos.checked_add(nbytes).filter(|&e| e <= buf.len())?;
        let pl = PostingList {
            packed: buf[*pos..end].to_vec(),
            last_id,
            len,
        };
        let mut it = pl.iter();
        let mut count = 0usize;
        let mut prev: Option<u64> = None;
        while it.pos < it.buf.len() {
            let p = it.next()?;
            let ordered = prev.is_none_or(|last| p.id > last)
                && !p.positions.is_empty()
                && p.positions.windows(2).all(|w| w[0] < w[1]);
            if !ordered {
                return None;
            }
            prev = Some(p.id);
            count += 1;
        }
        if count != len || prev.unwrap_or(0) != last_id {
            return None;
        }
        *pos = end;
        Some(pl)
    }
}

/// Decoding iterator over a [`PostingList`].
pub struct PostingIter<'a> {
    buf: &'a [u8],
    pos: usize,
    prev_id: u64,
    first: bool,
}

impl PostingIter<'_> {
    /// Decodes the next entry's id and position count, leaving the cursor
    /// on its positions. Checked throughout: a corrupt buffer ends the
    /// iteration instead of overflowing or allocating past what the bytes
    /// can hold.
    fn header(&mut self) -> Option<(u64, usize)> {
        if self.pos >= self.buf.len() {
            return None;
        }
        let gap = get(self.buf, &mut self.pos)?;
        let id = if self.first {
            gap
        } else {
            self.prev_id.checked_add(gap)?
        };
        self.first = false;
        self.prev_id = id;
        let n = usize::try_from(get(self.buf, &mut self.pos)?).ok()?;
        // Every position takes at least one byte.
        if n > self.buf.len() - self.pos {
            return None;
        }
        Some((id, n))
    }

    /// The next posting's id and term frequency (its position count),
    /// stepping over the positions without materializing them.
    pub fn next_tf(&mut self) -> Option<(u64, u32)> {
        let (id, n) = self.header()?;
        for _ in 0..n {
            get(self.buf, &mut self.pos)?;
        }
        Some((id, u32::try_from(n).ok()?))
    }
}

impl Iterator for PostingIter<'_> {
    type Item = Posting;

    fn next(&mut self) -> Option<Posting> {
        let (id, n) = self.header()?;
        let mut positions = Vec::with_capacity(n);
        let mut prev = 0u32;
        for i in 0..n {
            let g = u32::try_from(get(self.buf, &mut self.pos)?).ok()?;
            let p = if i == 0 { g } else { prev.checked_add(g)? };
            positions.push(p);
            prev = p;
        }
        Some(Posting { id, positions })
    }
}

/// Intersects two ascending id lists.
pub fn intersect(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Returns the first index `>= lo` with `large[idx] >= x` (or `large.len()`),
/// found by exponential (galloping) probe + binary search over the bounded
/// window. `O(log gap)` instead of `O(gap)`.
pub(crate) fn gallop_to(large: &[u64], lo: usize, x: u64) -> usize {
    if lo >= large.len() || large[lo] >= x {
        return lo;
    }
    // large[lo] < x: double the step until we overshoot, then binary-search
    // the last window.
    let mut prev = lo;
    let mut step = 1usize;
    let mut hi = lo + 1;
    while hi < large.len() && large[hi] < x {
        prev = hi;
        step *= 2;
        hi = prev + step;
    }
    let end = hi.min(large.len());
    prev + 1 + large[prev + 1..end].partition_point(|&v| v < x)
}

/// Intersects two ascending id lists by galloping through the larger one.
/// Wins when one side is much smaller: `O(small · log(large/small))`.
pub fn intersect_galloping(small: &[u64], large: &[u64]) -> Vec<u64> {
    let mut out = Vec::new();
    let mut lo = 0usize;
    for &x in small {
        lo = gallop_to(large, lo, x);
        if lo >= large.len() {
            break;
        }
        if large[lo] == x {
            out.push(x);
            lo += 1;
        }
    }
    out
}

/// Intersects two ascending id lists, picking linear merge or galloping
/// based on the size ratio.
pub fn intersect_adaptive(a: &[u64], b: &[u64]) -> Vec<u64> {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.is_empty() {
        return Vec::new();
    }
    if large.len() / small.len() >= 8 {
        intersect_galloping(small, large)
    } else {
        intersect(small, large)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_iter_round_trip() {
        let mut pl = PostingList::new();
        assert!(pl.push(3, &[0, 5, 9]));
        assert!(pl.push(10, &[2]));
        assert!(pl.push(1000000, &[7, 8]));
        let decoded: Vec<Posting> = pl.iter().collect();
        assert_eq!(decoded.len(), 3);
        assert_eq!(decoded[0].id, 3);
        assert_eq!(decoded[0].positions, vec![0, 5, 9]);
        assert_eq!(decoded[2].id, 1000000);
        assert_eq!(decoded[2].positions, vec![7, 8]);
        assert_eq!(pl.ids(), vec![3, 10, 1000000]);
    }

    #[test]
    fn ordering_contract_enforced() {
        let mut pl = PostingList::new();
        assert!(pl.push(5, &[1]));
        assert!(!pl.push(5, &[2]), "duplicate id rejected");
        assert!(!pl.push(4, &[2]), "descending id rejected");
        assert!(!pl.push(9, &[]), "empty positions rejected");
        assert_eq!(pl.len(), 1);
    }

    #[test]
    fn compression_is_compact_for_dense_ids() {
        let mut pl = PostingList::new();
        for id in 0..1000u64 {
            pl.push(id + 1, &[0]);
        }
        // gap=1 (1 byte) + n=1 (1) + pos=0 (1) → 3 bytes/posting.
        assert!(pl.byte_size() <= 3000, "got {}", pl.byte_size());
    }

    #[test]
    fn serialize_round_trip() {
        let mut pl = PostingList::new();
        pl.push(7, &[0, 3]);
        pl.push(900, &[12]);
        let mut buf = Vec::new();
        pl.serialize(&mut buf);
        let mut pos = 0;
        let back = PostingList::deserialize(&buf, &mut pos).unwrap();
        assert_eq!(back, pl);
        assert_eq!(pos, buf.len());
        // Truncated input fails cleanly.
        assert!(PostingList::deserialize(&buf[..buf.len() - 1], &mut 0).is_none());
    }

    /// Extreme id gaps near the u64 ceiling round-trip exactly: the delta
    /// coder must not overflow on a list whose last id is `u64::MAX`.
    #[test]
    fn codec_handles_u64_extremes() {
        let mut pl = PostingList::new();
        assert!(pl.push(5, &[1, 9]));
        assert!(pl.push(u64::MAX - 1, &[3]));
        assert!(pl.push(u64::MAX, &[2, 4, 6]));
        let mut buf = Vec::new();
        pl.serialize(&mut buf);
        let mut pos = 0usize;
        let back = PostingList::deserialize(&buf, &mut pos).expect("decode");
        assert_eq!(pos, buf.len());
        assert_eq!(back, pl);
        assert_eq!(back.ids(), vec![5, u64::MAX - 1, u64::MAX]);
        let tfs: Vec<usize> = back.iter().map(|p| p.positions.len()).collect();
        assert_eq!(tfs, vec![2, 1, 3]);
    }

    proptest::proptest! {
        /// The codec round-trips arbitrary doc-id gap distributions —
        /// dense runs, sparse 2^40-scale jumps, long lists — preserving
        /// every id and position.
        #[test]
        fn codec_round_trips_arbitrary_gaps(
            gaps in proptest::collection::vec((1u64..(1u64 << 40), 1usize..5), 1..400),
            first_pos in 0u32..1000,
        ) {
            let mut pl = PostingList::new();
            let mut id = 0u64;
            let mut expect: Vec<(u64, Vec<u32>)> = Vec::new();
            for (i, (gap, ntf)) in gaps.iter().enumerate() {
                id += gap;
                let positions: Vec<u32> = (0..*ntf as u32)
                    .map(|j| first_pos + i as u32 + j * 7)
                    .collect();
                proptest::prop_assert!(pl.push(id, &positions));
                expect.push((id, positions));
            }
            let mut buf = Vec::new();
            pl.serialize(&mut buf);
            let mut pos = 0usize;
            let back = PostingList::deserialize(&buf, &mut pos).expect("round trip");
            proptest::prop_assert!(pos == buf.len(), "trailing bytes after decode");
            proptest::prop_assert_eq!(&back, &pl);
            let decoded: Vec<(u64, Vec<u32>)> =
                back.iter().map(|p| (p.id, p.positions)).collect();
            proptest::prop_assert_eq!(decoded, expect);
        }
    }

    #[test]
    fn galloping_matches_linear_intersect() {
        let small = vec![5, 900, 901, 5000, 90000];
        let large: Vec<u64> = (0..100_000u64).filter(|v| v % 3 == 0).collect();
        assert_eq!(
            intersect_galloping(&small, &large),
            intersect(&small, &large)
        );
        // Degenerate shapes.
        assert_eq!(intersect_galloping(&[], &large), Vec::<u64>::new());
        assert_eq!(intersect_galloping(&small, &[]), Vec::<u64>::new());
        assert_eq!(intersect_galloping(&[3], &[3]), vec![3]);
        assert_eq!(
            intersect_adaptive(&small, &large),
            intersect(&small, &large)
        );
        assert_eq!(
            intersect_adaptive(&large, &small),
            intersect(&small, &large)
        );
    }

    #[test]
    fn galloping_randomized_against_reference() {
        // Deterministic xorshift so the test is reproducible.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..50 {
            let mut a: Vec<u64> = (0..(rnd() % 60)).map(|_| rnd() % 500).collect();
            let mut b: Vec<u64> = (0..(rnd() % 600)).map(|_| rnd() % 500).collect();
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            let expect = intersect(&a, &b);
            let (s, l) = if a.len() <= b.len() {
                (&a, &b)
            } else {
                (&b, &a)
            };
            assert_eq!(intersect_galloping(s, l), expect);
            assert_eq!(intersect_adaptive(&a, &b), expect);
        }
    }

    #[test]
    fn set_operations() {
        let a = vec![1, 3, 5, 7, 9];
        let b = vec![3, 4, 5, 10];
        assert_eq!(intersect(&a, &b), vec![3, 5]);
        assert_eq!(intersect(&a, &[]), Vec::<u64>::new());
    }
}
