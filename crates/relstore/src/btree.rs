//! Paged B+ tree over byte-string keys.
//!
//! Index files hold one tree each. Page 0 is a meta page whose `aux` field
//! stores the root page number. Leaves chain through their `aux` field
//! (0 = end of chain; page 0 is always the meta page, never a leaf).
//! Internal pages store their leftmost child in `aux` and cells of
//! `(separator key, right child)` pairs; a separator `s` divides keys
//! `< s` (left) from keys `>= s` (right).
//!
//! Modifications rewrite whole pages (read-modify-write over the slotted
//! layout); with ≤ a few hundred cells per page this is simple and fast
//! enough, and it keeps cells physically sorted so lookups binary-search.
//!
//! A full page splits at its byte midpoint, except on the right spine when
//! the new cell lands at the end: then only that cell moves to the new
//! right page. Keys inserted in ascending order (node ids, row ids) thus
//! leave every page but the rightmost full instead of half full. A right
//! spine internal page split this way starts with no cells, only its
//! leftmost child.
//!
//! Deletion is lazy: cells are removed but pages never merge. Indexes are
//! secondary structures here — they are *not* WAL-logged and are rebuilt
//! from the owning heap after a crash (see [`crate::db`]).

use crate::buffer::{BufferPool, PageRead};
use crate::disk::FileId;
use crate::error::{Result, StoreError};
use crate::page::{PageType, SlottedPage, SlottedPageRef, PAGE_SIZE};
use crate::tuple::{read_varint, write_varint};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Largest key+value a single cell may hold; beyond this the page math
/// cannot guarantee a split produces fitting halves.
pub const MAX_ENTRY: usize = 2000;

/// Page number of the meta page (its `aux` holds the root page number).
pub(crate) const META_PAGE: u32 = 0;

fn leaf_cell(key: &[u8], val: &[u8]) -> Vec<u8> {
    let mut c = Vec::with_capacity(key.len() + val.len() + 6);
    write_varint(&mut c, key.len() as u64);
    c.extend_from_slice(key);
    write_varint(&mut c, val.len() as u64);
    c.extend_from_slice(val);
    c
}

/// Key bytes of a leaf cell, borrowed in place (no copy).
fn leaf_cell_key(cell: &[u8]) -> Result<&[u8]> {
    let mut pos = 0usize;
    let klen = read_varint(cell, &mut pos)? as usize;
    let kend = pos + klen;
    if kend > cell.len() {
        return Err(StoreError::Corrupt("leaf cell key truncated".into()));
    }
    Ok(&cell[pos..kend])
}

fn parse_leaf_cell(cell: &[u8]) -> Result<(Vec<u8>, Vec<u8>)> {
    let mut pos = 0usize;
    let klen = read_varint(cell, &mut pos)? as usize;
    let kend = pos + klen;
    if kend > cell.len() {
        return Err(StoreError::Corrupt("leaf cell key truncated".into()));
    }
    let key = cell[pos..kend].to_vec();
    pos = kend;
    let vlen = read_varint(cell, &mut pos)? as usize;
    let vend = pos + vlen;
    if vend > cell.len() {
        return Err(StoreError::Corrupt("leaf cell value truncated".into()));
    }
    Ok((key, cell[pos..vend].to_vec()))
}

fn internal_cell(key: &[u8], child: u32) -> Vec<u8> {
    let mut c = Vec::with_capacity(key.len() + 8);
    write_varint(&mut c, key.len() as u64);
    c.extend_from_slice(key);
    c.extend_from_slice(&child.to_le_bytes());
    c
}

/// Borrowed view of an internal cell: `(key, child)` without copying
/// the key out. Used on comparison-heavy descent paths.
fn internal_cell_ref(cell: &[u8]) -> Result<(&[u8], u32)> {
    let mut pos = 0usize;
    let klen = read_varint(cell, &mut pos)? as usize;
    let kend = pos + klen;
    if kend + 4 > cell.len() {
        return Err(StoreError::Corrupt("internal cell truncated".into()));
    }
    let child = u32::from_le_bytes(cell[kend..kend + 4].try_into().unwrap());
    Ok((&cell[pos..kend], child))
}

fn parse_internal_cell(cell: &[u8]) -> Result<(Vec<u8>, u32)> {
    let mut pos = 0usize;
    let klen = read_varint(cell, &mut pos)? as usize;
    let kend = pos + klen;
    if kend + 4 > cell.len() {
        return Err(StoreError::Corrupt("internal cell truncated".into()));
    }
    let key = cell[pos..kend].to_vec();
    let child = u32::from_le_bytes(cell[kend..kend + 4].try_into().unwrap());
    Ok((key, child))
}

/// Cell `slot` of a B-tree page; B-tree pages have no dead slots.
fn cell_at<'a>(sp: &SlottedPageRef<'a>, slot: u16) -> Result<&'a [u8]> {
    sp.get(slot)
        .ok_or_else(|| StoreError::Corrupt("btree slot gap".into()))
}

/// Binary search of a leaf's slots (cells are kept in sorted slot order):
/// `Ok(slot)` holding `key`, or `Err(slot)` where it would be inserted.
fn search_leaf(sp: &SlottedPageRef<'_>, key: &[u8]) -> Result<std::result::Result<u16, u16>> {
    let (mut lo, mut hi) = (0u16, sp.slot_count());
    while lo < hi {
        let mid = (lo + hi) / 2;
        match leaf_cell_key(cell_at(sp, mid)?)?.cmp(key) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return Ok(Ok(mid)),
        }
    }
    Ok(Err(lo))
}

/// The child of an internal page covering `key` (the last separator
/// `<= key`, else the leftmost child), and whether it is the last child.
fn child_for(sp: &SlottedPageRef<'_>, key: &[u8]) -> Result<(u32, bool)> {
    let n = sp.slot_count();
    let (mut lo, mut hi) = (0u16, n);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if internal_cell_ref(cell_at(sp, mid)?)?.0 <= key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let child = if lo == 0 {
        sp.aux()
    } else {
        internal_cell_ref(cell_at(sp, lo - 1)?)?.1
    };
    Ok((child, n == 0 || lo == n))
}

/// The root page number, read from the meta page.
pub(crate) fn read_root<P: PageRead>(pages: &P, file: FileId) -> Result<u32> {
    pages.with_page(file, META_PAGE, |data| Ok(SlottedPageRef::new(data).aux()))
}

/// Descends from `root` to the leaf covering `key` and runs
/// `f(leaf page number, rightmost, leaf)` over it, where `rightmost` says
/// the descent took the last child at every level. This is the one B-tree
/// descent: lookups, range scans and the writer's insert all go through it.
fn with_leaf<P: PageRead, R>(
    pages: &P,
    file: FileId,
    root: u32,
    key: &[u8],
    f: impl FnOnce(u32, bool, SlottedPageRef<'_>) -> Result<R>,
) -> Result<R> {
    let mut f = Some(f);
    let (mut page, mut rightmost) = (root, true);
    loop {
        let step = pages.with_page(file, page, |data| {
            let sp = SlottedPageRef::new(data);
            match sp.page_type() {
                PageType::BtreeLeaf => {
                    let f = f.take().expect("a descent ends at one leaf");
                    f(page, rightmost, sp).map(ControlFlow::Break)
                }
                PageType::BtreeInternal => child_for(&sp, key).map(ControlFlow::Continue),
                t => Err(StoreError::Corrupt(format!(
                    "unexpected page type {t:?} in btree descent"
                ))),
            }
        })?;
        match step {
            ControlFlow::Break(r) => return Ok(r),
            ControlFlow::Continue((child, last)) => {
                page = child;
                rightmost &= last;
            }
        }
    }
}

/// Point lookup in the tree rooted at `root`.
pub(crate) fn get<P: PageRead>(
    pages: &P,
    file: FileId,
    root: u32,
    key: &[u8],
) -> Result<Option<Vec<u8>>> {
    with_leaf(pages, file, root, key, |_, _, leaf| {
        match search_leaf(&leaf, key)? {
            Ok(slot) => Ok(Some(parse_leaf_cell(cell_at(&leaf, slot)?)?.1)),
            Err(_) => Ok(None),
        }
    })
}

/// Range scan over `lo <= key < hi` in key order, in the tree rooted at
/// `root`.
pub(crate) fn range<P: PageRead>(
    pages: &P,
    file: FileId,
    root: u32,
    lo: &[u8],
    hi: &[u8],
) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
    let mut out = Vec::new();
    let mut next = with_leaf(pages, file, root, lo, |_, _, leaf| {
        collect_range(&leaf, lo, hi, &mut out)
    })?;
    while let Some(page) = next {
        next = pages.with_page(file, page, |data| {
            collect_range(&SlottedPageRef::new(data), lo, hi, &mut out)
        })?;
    }
    Ok(out)
}

/// Every entry of the tree rooted at `root`, in key order.
pub(crate) fn scan_all<P: PageRead>(
    pages: &P,
    file: FileId,
    root: u32,
) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
    range(pages, file, root, &[], &[0xFFu8; MAX_ENTRY / 64])
}

/// Appends one leaf's entries in `[lo, hi)` to `out`; returns the next leaf
/// to visit, or `None` once `hi` is reached or the leaf chain ends.
fn collect_range(
    leaf: &SlottedPageRef<'_>,
    lo: &[u8],
    hi: &[u8],
    out: &mut Vec<(Vec<u8>, Vec<u8>)>,
) -> Result<Option<u32>> {
    for (_, c) in leaf.iter_live() {
        let k = leaf_cell_key(c)?;
        if k >= hi {
            return Ok(None);
        }
        if k >= lo {
            out.push(parse_leaf_cell(c)?);
        }
    }
    Ok(Some(leaf.aux()).filter(|&next| next != 0))
}

/// Bytes the slotted layout charges for `cells`.
fn cells_size(cells: &[Vec<u8>]) -> usize {
    20 + cells.iter().map(|c| c.len() + 4).sum::<usize>()
}

/// A B+ tree over one index file.
pub struct BTree {
    pool: Arc<BufferPool>,
    file: FileId,
    /// Cached root page number (`u32::MAX` = not yet read from the meta
    /// page). The tree is the only writer of its meta page, so the cache
    /// is kept coherent by [`BTree::set_root`].
    root_cache: AtomicU32,
    /// Append hint: the rightmost leaf, if the last insert landed there
    /// (`u32::MAX` = none). Monotonic keys (ROWID- and ID-ordered indexes)
    /// then skip the descent entirely. Any split clears it.
    append_hint: AtomicU32,
}

impl BTree {
    /// Opens (initializing if empty) the tree in `file`.
    pub fn open(pool: Arc<BufferPool>, file: FileId) -> Result<BTree> {
        let t = BTree {
            pool,
            file,
            root_cache: AtomicU32::new(u32::MAX),
            append_hint: AtomicU32::new(u32::MAX),
        };
        if t.pool.file_manager().page_count(file) == 0 {
            // Meta page + empty root leaf.
            let (meta_no, meta) = t.pool.allocate(file)?;
            debug_assert_eq!(meta_no, META_PAGE);
            let (root_no, root) = t.pool.allocate(file)?;
            {
                let mut data = root.write();
                SlottedPage::init(&mut data, PageType::BtreeLeaf);
            }
            let mut data = meta.write();
            let mut sp = SlottedPage::init(&mut data, PageType::Meta);
            sp.set_aux(root_no);
        }
        Ok(t)
    }

    /// The underlying file id.
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// The root page number (cached after the first meta-page read).
    pub(crate) fn root(&self) -> Result<u32> {
        let cached = self.root_cache.load(Ordering::Relaxed);
        if cached != u32::MAX {
            return Ok(cached);
        }
        let root = read_root(&*self.pool, self.file)?;
        self.root_cache.store(root, Ordering::Relaxed);
        Ok(root)
    }

    fn set_root(&self, root: u32) -> Result<()> {
        let g = self.pool.fetch(self.file, META_PAGE)?;
        let mut data = g.write();
        SlottedPage::new(&mut data).set_aux(root);
        self.root_cache.store(root, Ordering::Relaxed);
        Ok(())
    }

    fn load(&self, page: u32) -> Result<(PageType, u32, Vec<Vec<u8>>)> {
        let g = self.pool.fetch(self.file, page)?;
        let data = g.read();
        let sp = SlottedPageRef::new(&data);
        let cells = sp.iter_live().map(|(_, c)| c.to_vec()).collect();
        Ok((sp.page_type(), sp.aux(), cells))
    }

    fn store(&self, page: u32, ptype: PageType, aux: u32, cells: &[Vec<u8>]) -> Result<()> {
        debug_assert!(cells_size(cells) <= PAGE_SIZE, "page overflow at store");
        let g = self.pool.fetch(self.file, page)?;
        let mut data = g.write();
        let mut sp = SlottedPage::init(&mut data, ptype);
        sp.set_aux(aux);
        sp.insert_bulk(cells);
        Ok(())
    }

    fn new_page(&self) -> Result<u32> {
        let (no, g) = self.pool.allocate(self.file)?;
        let mut data = g.write();
        SlottedPage::init(&mut data, PageType::BtreeLeaf);
        Ok(no)
    }

    /// Inserts (or replaces) `key → val`.
    pub fn insert(&self, key: &[u8], val: &[u8]) -> Result<()> {
        if key.len() + val.len() > MAX_ENTRY {
            return Err(StoreError::TupleTooLarge {
                size: key.len() + val.len(),
                max: MAX_ENTRY,
            });
        }
        // Append fast path: if the last insert landed on the rightmost
        // leaf and this key sorts at or after its first key, the key
        // belongs there too — one page fetch, no descent.
        let hint = self.append_hint.load(Ordering::Relaxed);
        if hint != u32::MAX {
            match self.try_hint_insert(hint, key, val)? {
                Some(true) => return Ok(()),
                Some(false) => {} // leaf full: fall through and split
                None => {}        // key not covered by the hint leaf
            }
        }
        // Fast path: descend without materializing pages and splice the
        // cell into the leaf in place. Only a full leaf (split required)
        // falls through to the rewrite path below.
        let (leaf, rightmost) = self.find_leaf(key)?;
        if self.try_leaf_insert(leaf, key, val)? {
            if rightmost {
                self.append_hint.store(leaf, Ordering::Relaxed);
            }
            return Ok(());
        }
        // Split required: the hint leaf may stop being rightmost.
        self.append_hint.store(u32::MAX, Ordering::Relaxed);
        let root = self.root()?;
        if let Some((sep, right)) = self.insert_rec(root, true, key, val)? {
            // Root split: create a new internal root.
            let new_root = self.new_page()?;
            self.store(
                new_root,
                PageType::BtreeInternal,
                root,
                &[internal_cell(&sep, right)],
            )?;
            self.set_root(new_root)?;
        }
        Ok(())
    }

    /// In-place leaf insert: binary-searches the slot directory directly
    /// (cells are kept in sorted slot order) and shifts the directory to
    /// splice the new cell in, touching none of the other cells. Returns
    /// `false` when the leaf has no room.
    fn try_leaf_insert(&self, leaf: u32, key: &[u8], val: &[u8]) -> Result<bool> {
        let g = self.pool.fetch(self.file, leaf)?;
        self.leaf_insert_in(&g, key, val)
    }

    /// Probes the append-hint leaf. `None`: the key does not provably
    /// belong to this leaf (caller descends). `Some(done)`: the key
    /// belongs here; `done` is false when the leaf is full (caller splits).
    fn try_hint_insert(&self, leaf: u32, key: &[u8], val: &[u8]) -> Result<Option<bool>> {
        let g = self.pool.fetch(self.file, leaf)?;
        {
            let data = g.read();
            let sp = SlottedPageRef::new(&data);
            if sp.page_type() != PageType::BtreeLeaf || sp.slot_count() == 0 {
                return Ok(None);
            }
            let first = sp
                .get(0)
                .ok_or_else(|| StoreError::Corrupt("btree slot gap".into()))?;
            // The hint leaf is rightmost, so covering the lower bound is
            // enough to place the key here.
            if leaf_cell_key(first)? > key {
                return Ok(None);
            }
        }
        self.leaf_insert_in(&g, key, val).map(Some)
    }

    fn leaf_insert_in(&self, g: &crate::buffer::PageGuard, key: &[u8], val: &[u8]) -> Result<bool> {
        let mut data = g.write();
        let found = search_leaf(&SlottedPageRef::new(&data), key)?;
        let mut sp = SlottedPage::new(&mut data);
        let cell = leaf_cell(key, val);
        Ok(match found {
            Ok(slot) => sp.update(slot, &cell),
            Err(pos) => sp.insert_sorted(pos, &cell),
        })
    }

    /// Inserts into the subtree at `page`; `right_spine` says `page` is the
    /// last page of its level. Returns the separator and new right page of
    /// a split, for the parent to insert.
    fn insert_rec(
        &self,
        page: u32,
        right_spine: bool,
        key: &[u8],
        val: &[u8],
    ) -> Result<Option<(Vec<u8>, u32)>> {
        let (ptype, aux, mut cells) = self.load(page)?;
        match ptype {
            PageType::BtreeLeaf => {
                // Cells are sorted by key; binary search for position.
                let pos = cells.binary_search_by(|c| {
                    let (k, _) = parse_leaf_cell(c).expect("cell parses");
                    k.as_slice().cmp(key)
                });
                let new_cell = leaf_cell(key, val);
                let appended = match pos {
                    Ok(i) => {
                        cells[i] = new_cell;
                        false
                    }
                    Err(i) => {
                        cells.insert(i, new_cell);
                        i + 1 == cells.len()
                    }
                };
                if cells_size(&cells) <= PAGE_SIZE {
                    self.store(page, PageType::BtreeLeaf, aux, &cells)?;
                    return Ok(None);
                }
                // The last leaf (no right sibling) appended to: the new
                // cell alone starts the next leaf.
                let split = if aux == 0 && appended {
                    cells.len() - 1
                } else {
                    split_point(&cells)
                };
                let right_cells: Vec<Vec<u8>> = cells.split_off(split);
                let right_page = self.new_page()?;
                let (sep, _) = parse_leaf_cell(&right_cells[0])?;
                self.store(right_page, PageType::BtreeLeaf, aux, &right_cells)?;
                self.store(page, PageType::BtreeLeaf, right_page, &cells)?;
                Ok(Some((sep, right_page)))
            }
            PageType::BtreeInternal => {
                let (idx, child) = self.descend(&cells, aux, key)?;
                // Insert a new separator just after the descended slot.
                let at = idx.map_or(0, |i| i + 1);
                let last_child = at == cells.len();
                let split = self.insert_rec(child, right_spine && last_child, key, val)?;
                let Some((sep, right)) = split else {
                    return Ok(None);
                };
                cells.insert(at, internal_cell(&sep, right));
                if cells_size(&cells) <= PAGE_SIZE {
                    self.store(page, PageType::BtreeInternal, aux, &cells)?;
                    return Ok(None);
                }
                // On the right spine a separator received at the end is
                // promoted alone: the new right page keeps only its child.
                let mid = if right_spine && last_child {
                    cells.len() - 1
                } else {
                    split_point(&cells).clamp(1, cells.len() - 1)
                };
                let mut right_cells = cells.split_off(mid);
                let (promote, right_leftmost) = parse_internal_cell(&right_cells[0])?;
                right_cells.remove(0);
                let right_page = self.new_page()?;
                self.store(
                    right_page,
                    PageType::BtreeInternal,
                    right_leftmost,
                    &right_cells,
                )?;
                self.store(page, PageType::BtreeInternal, aux, &cells)?;
                Ok(Some((promote, right_page)))
            }
            t => Err(StoreError::Corrupt(format!(
                "unexpected page type {t:?} in btree descent"
            ))),
        }
    }

    /// Picks the child for `key`: returns `(separator index descended
    /// through, child page)`, where index `None` means the leftmost child.
    fn descend(
        &self,
        cells: &[Vec<u8>],
        leftmost: u32,
        key: &[u8],
    ) -> Result<(Option<usize>, u32)> {
        let mut lo = 0usize;
        let mut hi = cells.len();
        // Find the last separator <= key.
        while lo < hi {
            let mid = (lo + hi) / 2;
            let (sep, _) = internal_cell_ref(&cells[mid])?;
            if sep <= key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo == 0 {
            Ok((None, leftmost))
        } else {
            let (_, child) = internal_cell_ref(&cells[lo - 1])?;
            Ok((Some(lo - 1), child))
        }
    }

    /// The leaf covering `key`, and whether it is the rightmost leaf —
    /// the condition for installing the append hint.
    fn find_leaf(&self, key: &[u8]) -> Result<(u32, bool)> {
        with_leaf(
            &*self.pool,
            self.file,
            self.root()?,
            key,
            |leaf, rightmost, _| Ok((leaf, rightmost)),
        )
    }

    /// Point lookup (in-place binary search; no page materialization).
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        get(&*self.pool, self.file, self.root()?, key)
    }

    /// Removes `key`. Returns whether it was present.
    pub fn delete(&self, key: &[u8]) -> Result<bool> {
        let (leaf, _) = self.find_leaf(key)?;
        let (_, aux, mut cells) = self.load(leaf)?;
        let before = cells.len();
        cells.retain(|c| {
            parse_leaf_cell(c)
                .map(|(k, _)| k.as_slice() != key)
                .unwrap_or(true)
        });
        if cells.len() == before {
            return Ok(false);
        }
        self.store(leaf, PageType::BtreeLeaf, aux, &cells)?;
        Ok(true)
    }

    /// Range scan over `lo <= key < hi`, yielding `(key, value)` pairs in
    /// key order.
    pub fn range(&self, lo: &[u8], hi: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        range(&*self.pool, self.file, self.root()?, lo, hi)
    }

    /// Iterates the whole tree in key order.
    pub fn scan_all(&self) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        scan_all(&*self.pool, self.file, self.root()?)
    }

    /// Number of entries (walks the leaf chain).
    pub fn len(&self) -> Result<usize> {
        // Find the leftmost leaf then follow the chain.
        let (mut page, _) = self.find_leaf(&[])?;
        let mut n = 0usize;
        loop {
            let (_, next, cells) = self.load(page)?;
            n += cells.len();
            if next == 0 {
                return Ok(n);
            }
            page = next;
        }
    }

    /// True when the tree holds no entries.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Tree height (1 = a single leaf root). Exposed for tests and the
    /// storage ablation bench.
    pub fn height(&self) -> Result<usize> {
        let mut page = self.root()?;
        let mut h = 1usize;
        loop {
            let (ptype, aux, _cells) = self.load(page)?;
            match ptype {
                PageType::BtreeLeaf => return Ok(h),
                PageType::BtreeInternal => {
                    page = aux;
                    h += 1;
                }
                t => {
                    return Err(StoreError::Corrupt(format!(
                        "unexpected page type {t:?} walking height"
                    )))
                }
            }
        }
    }
}

/// Index into `cells` that splits total bytes roughly in half, always
/// leaving at least one cell on each side.
fn split_point(cells: &[Vec<u8>]) -> usize {
    let total: usize = cells.iter().map(|c| c.len() + 4).sum();
    let mut acc = 0usize;
    for (i, c) in cells.iter().enumerate() {
        acc += c.len() + 4;
        if acc >= total / 2 {
            return (i + 1).min(cells.len() - 1).max(1);
        }
    }
    cells.len() / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::FileManager;
    use std::collections::BTreeMap;
    use std::path::PathBuf;

    fn setup(tag: &str) -> (BTree, PathBuf) {
        let dir = std::env::temp_dir().join(format!("netmark-bt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fm = Arc::new(FileManager::open(&dir).unwrap());
        let pool = Arc::new(BufferPool::new(Arc::clone(&fm), 256));
        let f = fm.open_file("i.idx").unwrap();
        (BTree::open(pool, f).unwrap(), dir)
    }

    #[test]
    fn insert_get_small() {
        let (t, dir) = setup("small");
        t.insert(b"b", b"2").unwrap();
        t.insert(b"a", b"1").unwrap();
        t.insert(b"c", b"3").unwrap();
        assert_eq!(t.get(b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(t.get(b"b").unwrap(), Some(b"2".to_vec()));
        assert_eq!(t.get(b"z").unwrap(), None);
        assert_eq!(t.len().unwrap(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replace_existing_key() {
        let (t, dir) = setup("replace");
        t.insert(b"k", b"old").unwrap();
        t.insert(b"k", b"new").unwrap();
        assert_eq!(t.get(b"k").unwrap(), Some(b"new".to_vec()));
        assert_eq!(t.len().unwrap(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn thousands_of_keys_splits_and_orders() {
        let (t, dir) = setup("bulk");
        let mut model = BTreeMap::new();
        // Insert in a scrambled but deterministic order.
        for i in 0u32..5000 {
            let k = format!("key{:08}", (i.wrapping_mul(2654435761)) % 100000);
            let v = format!("val{i}");
            t.insert(k.as_bytes(), v.as_bytes()).unwrap();
            model.insert(k.into_bytes(), v.into_bytes());
        }
        assert!(t.height().unwrap() >= 2, "bulk load should split the root");
        assert_eq!(t.len().unwrap(), model.len());
        // Full scan matches the model in order.
        let scanned = t.scan_all().unwrap();
        let expect: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        assert_eq!(scanned, expect);
        // Point lookups.
        for (k, v) in model.iter().take(200) {
            assert_eq!(t.get(k).unwrap().as_deref(), Some(v.as_slice()));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn range_scan_bounds() {
        let (t, dir) = setup("range");
        for i in 0..100u32 {
            t.insert(format!("k{i:03}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        let r = t.range(b"k010", b"k020").unwrap();
        assert_eq!(r.len(), 10);
        assert_eq!(r[0].0, b"k010".to_vec());
        assert_eq!(r[9].0, b"k019".to_vec());
        assert!(t.range(b"zzz", b"zzzz").unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delete_then_absent() {
        let (t, dir) = setup("delete");
        for i in 0..500u32 {
            t.insert(format!("k{i:03}").as_bytes(), b"v").unwrap();
        }
        assert!(t.delete(b"k250").unwrap());
        assert!(!t.delete(b"k250").unwrap());
        assert_eq!(t.get(b"k250").unwrap(), None);
        assert_eq!(t.len().unwrap(), 499);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn large_values_split_correctly() {
        let (t, dir) = setup("largeval");
        let big = vec![7u8; 1500];
        for i in 0..50u32 {
            t.insert(format!("k{i:02}").as_bytes(), &big).unwrap();
        }
        for i in 0..50u32 {
            assert_eq!(
                t.get(format!("k{i:02}").as_bytes()).unwrap(),
                Some(big.clone())
            );
        }
        let too_big = vec![0u8; MAX_ENTRY + 1];
        assert!(t.insert(b"k", &too_big).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A 100-byte key, so that a few thousand keys make a tree three
    /// levels high (74 leaf cells and 75 children per page).
    fn padded(i: u32) -> Vec<u8> {
        let mut k = format!("{i:08}").into_bytes();
        k.resize(100, b'.');
        k
    }

    /// `get`, `range`, `len` and `scan_all` agree with `model`.
    fn assert_matches(t: &BTree, model: &BTreeMap<Vec<u8>, Vec<u8>>) {
        assert_eq!(t.len().unwrap(), model.len());
        let all: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        assert_eq!(t.scan_all().unwrap(), all);
        for (k, v) in model {
            assert_eq!(t.get(k).unwrap().as_ref(), Some(v));
        }
        let (lo, hi) = (padded(100), padded(2000));
        let slice: Vec<_> = model
            .range(lo.clone()..hi.clone())
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        assert_eq!(t.range(&lo, &hi).unwrap(), slice);
        assert_eq!(t.get(b"absent").unwrap(), None);
    }

    /// The cells of `page`, and its last child if it is internal.
    fn last_child(t: &BTree, page: u32) -> (usize, u32) {
        let (ptype, aux, cells) = t.load(page).unwrap();
        assert_eq!(ptype, PageType::BtreeInternal);
        let child = cells
            .last()
            .map_or(aux, |c| parse_internal_cell(c).unwrap().1);
        (cells.len(), child)
    }

    /// Fill of every leaf, left to right: the bytes the slotted layout
    /// charges, over the page size.
    fn leaf_fills(t: &BTree) -> Vec<f64> {
        let (mut page, _) = t.find_leaf(&[]).unwrap();
        let mut fills = Vec::new();
        loop {
            let (_, next, cells) = t.load(page).unwrap();
            fills.push(cells_size(&cells) as f64 / PAGE_SIZE as f64);
            if next == 0 {
                return fills;
            }
            page = next;
        }
    }

    #[test]
    fn ascending_inserts_fill_every_leaf_but_the_last() {
        let (t, dir) = setup("append");
        let mut model = BTreeMap::new();
        let put = |t: &BTree, model: &mut BTreeMap<_, _>, i: u32| {
            t.insert(&padded(i), &i.to_le_bytes()).unwrap();
            model.insert(padded(i), i.to_le_bytes().to_vec());
        };
        let mut next = 0u32;
        while t.height().unwrap() < 3 {
            put(&t, &mut model, next);
            next += 1;
        }
        // The root split promoted the separator its right child received
        // at the end: that child holds no cells, only its leftmost child,
        // a leaf with the one key just inserted.
        let (root_cells, spine) = last_child(&t, t.root().unwrap());
        assert_eq!(root_cells, 1);
        assert_eq!(last_child(&t, spine).0, 0, "an internal page with no cells");
        assert_matches(&t, &model);
        let last = padded(next - 1);
        assert!(t.delete(&last).unwrap());
        model.remove(&last);
        assert_matches(&t, &model);
        put(&t, &mut model, next - 1);
        while next < 20_000 {
            put(&t, &mut model, next);
            next += 1;
        }
        assert!(t.height().unwrap() >= 3);
        assert_matches(&t, &model);
        let fills = leaf_fills(&t);
        let full = &fills[..fills.len() - 1];
        let min = full.iter().copied().fold(1.0, f64::min);
        let mean = full.iter().sum::<f64>() / full.len() as f64;
        eprintln!(
            "{} keys: {} leaves, fill of all but the last: min {min:.3}, mean {mean:.3}",
            model.len(),
            fills.len()
        );
        assert!(min >= 0.9, "leaf fill {min:.3} below 90%");
        // Deletes and out-of-order inserts keep the midpoint split.
        for i in (0..next).step_by(7) {
            assert!(t.delete(&padded(i)).unwrap());
            model.remove(&padded(i));
        }
        for i in 0..3000u32 {
            let k = padded((i.wrapping_mul(2654435761)) % 40_000);
            t.insert(&k, b"r").unwrap();
            model.insert(k, b"r".to_vec());
        }
        assert_matches(&t, &model);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persists_across_reopen() {
        let dir = std::env::temp_dir().join(format!("netmark-bt-reopen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let fm = Arc::new(FileManager::open(&dir).unwrap());
            let pool = Arc::new(BufferPool::new(Arc::clone(&fm), 64));
            let f = fm.open_file("i.idx").unwrap();
            let t = BTree::open(Arc::clone(&pool), f).unwrap();
            for i in 0..1000u32 {
                t.insert(format!("k{i:04}").as_bytes(), &i.to_le_bytes())
                    .unwrap();
            }
            pool.flush_all().unwrap();
        }
        let fm = Arc::new(FileManager::open(&dir).unwrap());
        let pool = Arc::new(BufferPool::new(Arc::clone(&fm), 64));
        let f = fm.open_file("i.idx").unwrap();
        let t = BTree::open(pool, f).unwrap();
        assert_eq!(t.len().unwrap(), 1000);
        assert_eq!(
            t.get(b"k0500").unwrap(),
            Some(500u32.to_le_bytes().to_vec())
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
