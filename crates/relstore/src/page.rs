//! Slotted-page layout.
//!
//! Every page in the engine — heap pages and B-tree pages alike — uses the
//! same slotted layout: a fixed header, a slot directory growing forward from
//! the header, and cell data growing backward from the end of the page.
//! Deleting a cell tombstones its slot; the space is reclaimed lazily by
//! [`SlottedPage::compact`], which preserves slot numbers (and therefore
//! ROWIDs — the property the paper's traversal scheme depends on).
//!
//! Layout (`PAGE_SIZE` = 8192 bytes):
//!
//! ```text
//! 0..2    u16 slot_count
//! 2..4    u16 free_end       (cells occupy free_end..PAGE_SIZE)
//! 4..6    u16 page_type      (heap / btree-leaf / btree-internal / meta)
//! 6..8    u16 dead_bytes     (cell bytes reclaimable by compaction)
//! 8..16   u64 lsn            (last WAL record applied; redo idempotence)
//! 16..20  u32 aux            (B-tree: next-leaf page / leftmost child)
//! 20..    slot directory: per slot { u16 offset, u16 len }
//! ```
//!
//! A slot with `offset == DEAD_SLOT` is a tombstone; its number may be reused
//! by a later insert.

/// Size in bytes of every page in the engine.
pub const PAGE_SIZE: usize = 8192;

const HEADER_SIZE: usize = 20;
const SLOT_SIZE: usize = 4;
const DEAD_SLOT: u16 = u16::MAX;

/// Largest cell that fits on an otherwise empty page.
pub const MAX_CELL: usize = PAGE_SIZE - HEADER_SIZE - SLOT_SIZE;

/// Discriminates how a page's cells are interpreted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageType {
    /// Unformatted / never used.
    Free = 0,
    /// Heap-file page holding tuples.
    Heap = 1,
    /// B-tree leaf page holding (key, value) cells.
    BtreeLeaf = 2,
    /// B-tree internal page holding (separator, child) cells.
    BtreeInternal = 3,
    /// Per-file metadata page (page 0 of an index file).
    Meta = 4,
}

impl PageType {
    fn from_u16(v: u16) -> PageType {
        match v {
            1 => PageType::Heap,
            2 => PageType::BtreeLeaf,
            3 => PageType::BtreeInternal,
            4 => PageType::Meta,
            _ => PageType::Free,
        }
    }
}

/// A view over one page's bytes providing the slotted-cell operations.
///
/// `SlottedPage` borrows the raw page buffer mutably; it is a zero-copy
/// accessor, not an owner. All offsets are validated in debug builds.
pub struct SlottedPage<'a> {
    buf: &'a mut [u8],
}

impl<'a> SlottedPage<'a> {
    /// Wraps an existing formatted page.
    pub fn new(buf: &'a mut [u8]) -> SlottedPage<'a> {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        SlottedPage { buf }
    }

    /// Formats `buf` as an empty page of the given type.
    pub fn init(buf: &'a mut [u8], ptype: PageType) -> SlottedPage<'a> {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        buf.fill(0);
        let mut p = SlottedPage { buf };
        p.set_slot_count(0);
        p.set_free_end(PAGE_SIZE as u16);
        p.set_page_type(ptype);
        p.set_aux(0);
        p
    }

    fn read_u16(&self, at: usize) -> u16 {
        u16::from_le_bytes([self.buf[at], self.buf[at + 1]])
    }

    fn write_u16(&mut self, at: usize, v: u16) {
        self.buf[at..at + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Number of slots in the directory (live + dead).
    pub fn slot_count(&self) -> u16 {
        self.read_u16(0)
    }

    fn set_slot_count(&mut self, v: u16) {
        self.write_u16(0, v);
    }

    fn free_end(&self) -> u16 {
        self.read_u16(2)
    }

    fn set_free_end(&mut self, v: u16) {
        self.write_u16(2, v);
    }

    /// Running count of cell bytes reclaimable by [`SlottedPage::compact`]
    /// (tombstoned cells plus tails leaked by shrinking updates). Kept in
    /// the header so free-space checks never scan the slot directory.
    fn dead_bytes(&self) -> u16 {
        self.read_u16(6)
    }

    fn add_dead_bytes(&mut self, delta: usize) {
        let v = self.dead_bytes() as usize + delta;
        self.write_u16(6, v as u16);
    }

    fn sub_dead_bytes(&mut self, delta: usize) {
        let v = (self.dead_bytes() as usize).saturating_sub(delta);
        self.write_u16(6, v as u16);
    }

    /// This page's [`PageType`].
    pub fn page_type(&self) -> PageType {
        PageType::from_u16(self.read_u16(4))
    }

    /// Changes the page type without clearing contents.
    pub fn set_page_type(&mut self, t: PageType) {
        self.write_u16(4, t as u16);
    }

    /// LSN of the last WAL record applied to this page.
    pub fn lsn(&self) -> u64 {
        u64::from_le_bytes(self.buf[8..16].try_into().unwrap())
    }

    /// Stamps the page with a WAL LSN (for idempotent redo).
    pub fn set_lsn(&mut self, lsn: u64) {
        self.buf[8..16].copy_from_slice(&lsn.to_le_bytes());
    }

    /// Auxiliary pointer: next-leaf for B-tree leaves, leftmost child for
    /// internal nodes; unused by heap pages.
    pub fn aux(&self) -> u32 {
        u32::from_le_bytes(self.buf[16..20].try_into().unwrap())
    }

    /// Sets the auxiliary pointer.
    pub fn set_aux(&mut self, v: u32) {
        self.buf[16..20].copy_from_slice(&v.to_le_bytes());
    }

    fn slot_at(&self, slot: u16) -> (u16, u16) {
        let base = HEADER_SIZE + slot as usize * SLOT_SIZE;
        (self.read_u16(base), self.read_u16(base + 2))
    }

    fn set_slot(&mut self, slot: u16, offset: u16, len: u16) {
        let base = HEADER_SIZE + slot as usize * SLOT_SIZE;
        self.write_u16(base, offset);
        self.write_u16(base + 2, len);
    }

    fn dir_end(&self) -> usize {
        HEADER_SIZE + self.slot_count() as usize * SLOT_SIZE
    }

    /// Contiguous free bytes between the slot directory and the cell region.
    /// Zero for unformatted pages.
    pub fn contiguous_free(&self) -> usize {
        (self.free_end() as usize).saturating_sub(self.dir_end())
    }

    /// Total reclaimable free bytes (contiguous + dead-cell space).
    pub fn total_free(&self) -> usize {
        self.contiguous_free() + self.dead_bytes() as usize
    }

    /// True if the slot exists and holds a live cell.
    pub fn is_live(&self, slot: u16) -> bool {
        slot < self.slot_count() && self.slot_at(slot).0 != DEAD_SLOT
    }

    /// Returns the cell bytes of a live slot, or `None`.
    pub fn get(&self, slot: u16) -> Option<&[u8]> {
        if slot >= self.slot_count() {
            return None;
        }
        let (off, len) = self.slot_at(slot);
        if off == DEAD_SLOT {
            return None;
        }
        Some(&self.buf[off as usize..off as usize + len as usize])
    }

    fn find_dead_slot(&self) -> Option<u16> {
        (0..self.slot_count()).find(|&s| self.slot_at(s).0 == DEAD_SLOT)
    }

    /// Inserts a cell, reusing a dead slot number if one exists. Returns the
    /// slot number, or `None` if the page cannot hold the cell.
    pub fn insert(&mut self, data: &[u8]) -> Option<u16> {
        let dead = self.find_dead_slot();
        let needed = data.len() + if dead.is_some() { 0 } else { SLOT_SIZE };
        if needed > self.total_free() {
            return None;
        }
        if needed > self.contiguous_free() {
            self.compact();
        }
        let slot = match dead {
            Some(s) => s,
            None => {
                let s = self.slot_count();
                self.set_slot_count(s + 1);
                s
            }
        };
        let new_end = self.free_end() as usize - data.len();
        self.buf[new_end..new_end + data.len()].copy_from_slice(data);
        self.set_free_end(new_end as u16);
        self.set_slot(slot, new_end as u16, data.len() as u16);
        Some(slot)
    }

    /// Inserts a cell at a specific slot number, extending the directory as
    /// needed (used by WAL redo to reproduce exact ROWIDs). Returns `false`
    /// if space is insufficient.
    pub fn insert_at(&mut self, slot: u16, data: &[u8]) -> bool {
        if self.is_live(slot) {
            return false;
        }
        let extra_slots = (slot as usize + 1).saturating_sub(self.slot_count() as usize);
        let needed = data.len() + extra_slots * SLOT_SIZE;
        if needed > self.total_free() {
            return false;
        }
        if needed > self.contiguous_free() {
            self.compact();
        }
        if extra_slots > 0 {
            let old = self.slot_count();
            self.set_slot_count(slot + 1);
            for s in old..slot + 1 {
                self.set_slot(s, DEAD_SLOT, 0);
            }
        }
        let new_end = self.free_end() as usize - data.len();
        self.buf[new_end..new_end + data.len()].copy_from_slice(data);
        self.set_free_end(new_end as u16);
        self.set_slot(slot, new_end as u16, data.len() as u16);
        true
    }

    /// Inserts a cell at slot *position* `pos`, shifting later directory
    /// entries up by one — the B-tree fast path for keeping cells in sorted
    /// slot order without rewriting the page. Requires every slot to be
    /// live (B-tree pages never carry tombstones). Returns `false` if the
    /// page lacks room (caller splits).
    pub fn insert_sorted(&mut self, pos: u16, data: &[u8]) -> bool {
        let count = self.slot_count();
        debug_assert!(pos <= count);
        let needed = data.len() + SLOT_SIZE;
        if needed > self.total_free() {
            return false;
        }
        if needed > self.contiguous_free() {
            self.compact();
        }
        let start = HEADER_SIZE + pos as usize * SLOT_SIZE;
        let end = HEADER_SIZE + count as usize * SLOT_SIZE;
        self.buf.copy_within(start..end, start + SLOT_SIZE);
        self.set_slot_count(count + 1);
        let new_end = self.free_end() as usize - data.len();
        self.buf[new_end..new_end + data.len()].copy_from_slice(data);
        self.set_free_end(new_end as u16);
        self.set_slot(pos, new_end as u16, data.len() as u16);
        true
    }

    /// Bulk-loads `cells` into a freshly initialized page in one pass
    /// (no per-cell free-space scans). The caller must have just called
    /// [`SlottedPage::init`] and guaranteed the cells fit.
    pub fn insert_bulk(&mut self, cells: &[Vec<u8>]) {
        debug_assert_eq!(self.slot_count(), 0, "bulk load requires a fresh page");
        let mut end = PAGE_SIZE;
        self.set_slot_count(cells.len() as u16);
        for (i, c) in cells.iter().enumerate() {
            end -= c.len();
            self.buf[end..end + c.len()].copy_from_slice(c);
            self.set_slot(i as u16, end as u16, c.len() as u16);
        }
        self.set_free_end(end as u16);
        debug_assert!(end >= self.dir_end(), "bulk load overflowed the page");
    }

    /// Tombstones a slot. Returns the old cell bytes' length, or `None` if
    /// the slot was not live.
    pub fn delete(&mut self, slot: u16) -> Option<usize> {
        if !self.is_live(slot) {
            return None;
        }
        let (_, len) = self.slot_at(slot);
        // Record the dead length so total_free() can account for it.
        self.set_slot(slot, DEAD_SLOT, len);
        self.add_dead_bytes(len as usize);
        Some(len as usize)
    }

    /// Replaces the cell at `slot` preserving the slot number. Returns
    /// `false` if the new cell cannot fit.
    pub fn update(&mut self, slot: u16, data: &[u8]) -> bool {
        if !self.is_live(slot) {
            return false;
        }
        let (off, len) = self.slot_at(slot);
        if data.len() <= len as usize {
            // Shrink in place; leak the tail (reclaimed on compaction).
            let off = off as usize;
            self.buf[off..off + data.len()].copy_from_slice(data);
            self.set_slot(slot, off as u16, data.len() as u16);
            self.add_dead_bytes(len as usize - data.len());
            return true;
        }
        // Need to move: free the old cell then re-insert at the same slot.
        self.set_slot(slot, DEAD_SLOT, len);
        self.add_dead_bytes(len as usize);
        if data.len() > self.total_free() {
            // Roll back the tombstone.
            self.set_slot(slot, off, len);
            self.sub_dead_bytes(len as usize);
            return false;
        }
        if data.len() > self.contiguous_free() {
            self.compact();
        }
        let new_end = self.free_end() as usize - data.len();
        self.buf[new_end..new_end + data.len()].copy_from_slice(data);
        self.set_free_end(new_end as u16);
        self.set_slot(slot, new_end as u16, data.len() as u16);
        true
    }

    /// Rewrites the cell region dropping dead space. Slot numbers are
    /// preserved; only cell offsets change.
    pub fn compact(&mut self) {
        let count = self.slot_count();
        let mut cells: Vec<(u16, Vec<u8>)> = Vec::with_capacity(count as usize);
        for s in 0..count {
            let (off, len) = self.slot_at(s);
            if off != DEAD_SLOT {
                let off = off as usize;
                cells.push((s, self.buf[off..off + len as usize].to_vec()));
            } else {
                // A compacted dead slot no longer owns reclaimable bytes.
                self.set_slot(s, DEAD_SLOT, 0);
            }
        }
        let mut end = PAGE_SIZE;
        for (s, data) in cells {
            end -= data.len();
            self.buf[end..end + data.len()].copy_from_slice(&data);
            self.set_slot(s, end as u16, data.len() as u16);
        }
        self.set_free_end(end as u16);
        self.write_u16(6, 0);
    }

    /// Number of live cells.
    pub fn live_count(&self) -> u16 {
        (0..self.slot_count())
            .filter(|&s| self.slot_at(s).0 != DEAD_SLOT)
            .count() as u16
    }

    /// Iterates `(slot, cell)` over live cells.
    pub fn iter_live(&self) -> impl Iterator<Item = (u16, &[u8])> + '_ {
        (0..self.slot_count()).filter_map(move |s| self.get(s).map(|d| (s, d)))
    }
}

/// Read-only view over one page's bytes (no `&mut` needed; used by fetch
/// paths that must not mark pages dirty).
pub struct SlottedPageRef<'a> {
    buf: &'a [u8],
}

impl<'a> SlottedPageRef<'a> {
    /// Wraps an existing formatted page read-only.
    pub fn new(buf: &'a [u8]) -> SlottedPageRef<'a> {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        SlottedPageRef { buf }
    }

    fn read_u16(&self, at: usize) -> u16 {
        u16::from_le_bytes([self.buf[at], self.buf[at + 1]])
    }

    /// Number of slots in the directory (live + dead).
    pub fn slot_count(&self) -> u16 {
        self.read_u16(0)
    }

    /// This page's [`PageType`].
    pub fn page_type(&self) -> PageType {
        PageType::from_u16(self.read_u16(4))
    }

    /// LSN of the last WAL record applied to this page.
    pub fn lsn(&self) -> u64 {
        u64::from_le_bytes(self.buf[8..16].try_into().unwrap())
    }

    /// Auxiliary pointer (see [`SlottedPage::aux`]).
    pub fn aux(&self) -> u32 {
        u32::from_le_bytes(self.buf[16..20].try_into().unwrap())
    }

    fn slot_at(&self, slot: u16) -> (u16, u16) {
        let base = HEADER_SIZE + slot as usize * SLOT_SIZE;
        (self.read_u16(base), self.read_u16(base + 2))
    }

    /// True if the slot exists and holds a live cell.
    pub fn is_live(&self, slot: u16) -> bool {
        slot < self.slot_count() && self.slot_at(slot).0 != DEAD_SLOT
    }

    /// Returns the cell bytes of a live slot, or `None`.
    pub fn get(&self, slot: u16) -> Option<&'a [u8]> {
        if slot >= self.slot_count() {
            return None;
        }
        let (off, len) = self.slot_at(slot);
        if off == DEAD_SLOT {
            return None;
        }
        Some(&self.buf[off as usize..off as usize + len as usize])
    }

    /// Total reclaimable free bytes (contiguous + dead-cell space).
    pub fn total_free(&self) -> usize {
        let dir_end = HEADER_SIZE + self.slot_count() as usize * SLOT_SIZE;
        (self.read_u16(2) as usize).saturating_sub(dir_end) + self.read_u16(6) as usize
    }

    /// Number of live cells.
    pub fn live_count(&self) -> u16 {
        (0..self.slot_count())
            .filter(|&s| self.slot_at(s).0 != DEAD_SLOT)
            .count() as u16
    }

    /// Iterates `(slot, cell)` over live cells.
    pub fn iter_live(&self) -> impl Iterator<Item = (u16, &'a [u8])> + '_ {
        (0..self.slot_count()).filter_map(move |s| self.get(s).map(|d| (s, d)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Vec<u8> {
        let mut buf = vec![0u8; PAGE_SIZE];
        SlottedPage::init(&mut buf, PageType::Heap);
        buf
    }

    #[test]
    fn insert_and_get_round_trip() {
        let mut buf = fresh();
        let mut p = SlottedPage::new(&mut buf);
        let s0 = p.insert(b"hello").unwrap();
        let s1 = p.insert(b"world!").unwrap();
        assert_eq!(p.get(s0), Some(&b"hello"[..]));
        assert_eq!(p.get(s1), Some(&b"world!"[..]));
        assert_eq!(p.live_count(), 2);
    }

    #[test]
    fn delete_tombstones_and_slot_reuse() {
        let mut buf = fresh();
        let mut p = SlottedPage::new(&mut buf);
        let s0 = p.insert(b"aaa").unwrap();
        let _s1 = p.insert(b"bbb").unwrap();
        assert!(p.delete(s0).is_some());
        assert_eq!(p.get(s0), None);
        assert!(p.delete(s0).is_none(), "double delete is a no-op");
        let s2 = p.insert(b"ccc").unwrap();
        assert_eq!(s2, s0, "dead slot numbers are reused");
        assert_eq!(p.get(s2), Some(&b"ccc"[..]));
    }

    #[test]
    fn update_in_place_and_grow() {
        let mut buf = fresh();
        let mut p = SlottedPage::new(&mut buf);
        let s = p.insert(b"0123456789").unwrap();
        assert!(p.update(s, b"abc"));
        assert_eq!(p.get(s), Some(&b"abc"[..]));
        assert!(p.update(s, b"a much longer value than before"));
        assert_eq!(p.get(s), Some(&b"a much longer value than before"[..]));
    }

    #[test]
    fn fill_page_then_compact_recovers_space() {
        let mut buf = fresh();
        let mut p = SlottedPage::new(&mut buf);
        let cell = vec![7u8; 100];
        let mut slots = Vec::new();
        while let Some(s) = p.insert(&cell) {
            slots.push(s);
        }
        assert!(
            slots.len() > 70,
            "should fit ~78 cells, got {}",
            slots.len()
        );
        // Delete every other cell, then a big insert must trigger compaction.
        for s in slots.iter().step_by(2) {
            p.delete(*s);
        }
        let big = vec![9u8; 1000];
        let s = p.insert(&big).expect("compaction frees room");
        assert_eq!(p.get(s), Some(&big[..]));
        // Survivors are intact.
        for s in slots.iter().skip(1).step_by(2) {
            assert_eq!(p.get(*s), Some(&cell[..]));
        }
    }

    #[test]
    fn insert_at_reproduces_slot_numbers() {
        let mut buf = fresh();
        let mut p = SlottedPage::new(&mut buf);
        assert!(p.insert_at(3, b"redo"));
        assert_eq!(p.get(3), Some(&b"redo"[..]));
        assert_eq!(p.get(0), None);
        assert_eq!(p.slot_count(), 4);
        // Filling earlier dead slots still works.
        let s = p.insert(b"x").unwrap();
        assert!(s < 3);
    }

    #[test]
    fn oversized_insert_rejected() {
        let mut buf = fresh();
        let mut p = SlottedPage::new(&mut buf);
        let too_big = vec![0u8; MAX_CELL + 1];
        assert!(p.insert(&too_big).is_none());
        let exactly = vec![0u8; MAX_CELL];
        assert!(p.insert(&exactly).is_some());
    }

    #[test]
    fn lsn_and_aux_round_trip() {
        let mut buf = fresh();
        let mut p = SlottedPage::new(&mut buf);
        p.set_lsn(0xDEADBEEF01020304);
        p.set_aux(42);
        assert_eq!(p.lsn(), 0xDEADBEEF01020304);
        assert_eq!(p.aux(), 42);
        assert_eq!(p.page_type(), PageType::Heap);
    }
}
