//! Heap files: unordered tuple storage addressed by physical [`RowId`].
//!
//! The paper leans on Oracle's physical ROWIDs "for very fast traversal
//! between nodes that are related" — NETMARK's `XML` table stores
//! `PARENTROWID` / `SIBLINGID` columns and the query processor chases them
//! without index lookups. A [`RowId`] here is `(page, slot)`; it stays valid
//! for the lifetime of the tuple, across updates (via forwarding cells) and
//! page compactions (slot numbers are stable).
//!
//! Cell format: a 1-byte record kind, then payload:
//! - `0` **data** — the tuple bytes follow.
//! - `1` **forward** — 6-byte RowId of the relocated tuple.
//! - `2` **moved data** — 6-byte original RowId, then tuple bytes (lets
//!   scans report the client-visible RowId).

use crate::buffer::{BufferPool, PageRead};
use crate::disk::FileId;
use crate::error::{Result, StoreError};
use crate::page::{PageType, SlottedPage, SlottedPageRef, MAX_CELL};
use crate::RowId;
use parking_lot::Mutex;
use std::ops::ControlFlow;
use std::sync::Arc;

const KIND_DATA: u8 = 0;
const KIND_FORWARD: u8 = 1;
const KIND_MOVED: u8 = 2;

fn encode_rowid(rid: RowId, out: &mut Vec<u8>) {
    out.extend_from_slice(&rid.page.to_le_bytes());
    out.extend_from_slice(&rid.slot.to_le_bytes());
}

fn decode_rowid(buf: &[u8]) -> Result<RowId> {
    if buf.len() < 6 {
        return Err(StoreError::Corrupt("short rowid cell".into()));
    }
    Ok(RowId {
        page: u32::from_le_bytes(buf[0..4].try_into().unwrap()),
        slot: u16::from_le_bytes(buf[4..6].try_into().unwrap()),
    })
}

/// Follows forwarding cells from `rid` to the cell that actually holds
/// tuple bytes (a data or moved-data cell) and runs `f(physical rid, cell)`
/// over it. This is the one forwarding-chain walk: the live heap and
/// snapshot reads both resolve through it.
fn resolve<P: PageRead, R>(
    pages: &P,
    file: FileId,
    rid: RowId,
    f: impl FnOnce(RowId, &[u8]) -> Result<R>,
) -> Result<R> {
    let mut f = Some(f);
    let mut cur = rid;
    // A forward chain is at most a handful of hops; cap defensively.
    for _ in 0..32 {
        if cur.page >= pages.page_count(file) {
            return Err(StoreError::RowNotFound(rid));
        }
        let step = pages.with_page(file, cur.page, |data| {
            let cell = SlottedPageRef::new(data)
                .get(cur.slot)
                .ok_or(StoreError::RowNotFound(rid))?;
            match cell.first() {
                Some(&KIND_FORWARD) => Ok(ControlFlow::Continue(decode_rowid(&cell[1..])?)),
                Some(&(KIND_DATA | KIND_MOVED)) => {
                    let f = f.take().expect("a chain ends at one data cell");
                    f(cur, cell).map(ControlFlow::Break)
                }
                _ => Err(StoreError::Corrupt("bad heap cell kind".into())),
            }
        })?;
        match step {
            ControlFlow::Break(r) => return Ok(r),
            ControlFlow::Continue(next) => cur = next,
        }
    }
    Err(StoreError::Corrupt("forwarding chain too long".into()))
}

/// Tuple bytes of a resolved data or moved-data cell.
fn payload(cell: &[u8]) -> &[u8] {
    match cell[0] {
        KIND_DATA => &cell[1..],
        _ => &cell[7..], // KIND_MOVED: skip kind + original rid
    }
}

/// Tuple bytes stored under `rid`.
pub(crate) fn get<P: PageRead>(pages: &P, file: FileId, rid: RowId) -> Result<Vec<u8>> {
    resolve(pages, file, rid, |_, cell| Ok(payload(cell).to_vec()))
}

/// True if `rid` names a live tuple; errors other than "not found" pass
/// through.
pub(crate) fn exists<P: PageRead>(pages: &P, file: FileId, rid: RowId) -> Result<bool> {
    match resolve(pages, file, rid, |_, _| Ok(())) {
        Ok(()) => Ok(true),
        Err(StoreError::RowNotFound(_)) => Ok(false),
        Err(e) => Err(e),
    }
}

/// Full scan yielding `(client-visible RowId, tuple bytes)`.
pub(crate) fn scan<P: PageRead>(pages: &P, file: FileId) -> Result<Vec<(RowId, Vec<u8>)>> {
    let mut out = Vec::new();
    for p in 0..pages.page_count(file) {
        pages.with_page(file, p, |data| {
            let sp = SlottedPageRef::new(data);
            if sp.page_type() != PageType::Heap {
                return Ok(()); // allocated but never formatted (or non-heap)
            }
            for (slot, cell) in sp.iter_live() {
                match cell.first() {
                    Some(&KIND_DATA) => out.push((RowId { page: p, slot }, cell[1..].to_vec())),
                    Some(&KIND_MOVED) => out.push((decode_rowid(&cell[1..7])?, cell[7..].to_vec())),
                    _ => {} // forward cells are not tuples
                }
            }
            Ok(())
        })?;
    }
    Ok(out)
}

/// A change applied to the heap, reported to the caller so the database
/// layer can WAL-log it and keep undo information.
#[derive(Debug, Clone)]
pub enum HeapOp {
    /// Cell inserted at `rid` with the given raw cell bytes.
    Insert {
        /// Location of the new cell.
        rid: RowId,
        /// Raw cell bytes (kind prefix included).
        cell: Vec<u8>,
    },
    /// Cell at `rid` deleted; `old` is the prior raw cell.
    Delete {
        /// Location of the removed cell.
        rid: RowId,
        /// Previous raw cell bytes.
        old: Vec<u8>,
    },
    /// Cell at `rid` rewritten from `old` to `new`.
    Update {
        /// Location of the rewritten cell.
        rid: RowId,
        /// Previous raw cell bytes.
        old: Vec<u8>,
        /// New raw cell bytes.
        new: Vec<u8>,
    },
}

/// Unordered tuple storage over one page file.
pub struct HeapFile {
    pool: Arc<BufferPool>,
    file: FileId,
    /// Free-bytes estimate per page, maintained incrementally after an
    /// initial scan; guides insert placement.
    fsm: Mutex<Vec<u32>>,
}

/// Maximum tuple payload (cell minus kind byte).
pub const MAX_TUPLE: usize = MAX_CELL - 1;

impl HeapFile {
    /// Opens a heap over `file`, scanning existing pages to build the
    /// free-space map.
    pub fn open(pool: Arc<BufferPool>, file: FileId) -> Result<HeapFile> {
        let n = pool.file_manager().page_count(file);
        let mut fsm = Vec::with_capacity(n as usize);
        for p in 0..n {
            let guard = pool.fetch(file, p)?;
            let data = guard.read();
            let sp = SlottedPageRef::new(&data);
            // Unformatted pages (allocated but never flushed before a
            // crash) report zero free space; WAL redo formats them.
            fsm.push(if sp.page_type() == PageType::Heap {
                sp.total_free() as u32
            } else {
                0
            });
        }
        Ok(HeapFile {
            pool,
            file,
            fsm: Mutex::new(fsm),
        })
    }

    /// The underlying file id.
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// Number of pages currently allocated.
    pub fn page_count(&self) -> u32 {
        self.fsm.lock().len() as u32
    }

    fn pick_page(&self, need: usize) -> Option<u32> {
        let fsm = self.fsm.lock();
        // Last-fit first: recent pages are most likely cached and least
        // fragmented; fall back to any page with room.
        fsm.iter()
            .enumerate()
            .rev()
            .find(|(_, &free)| free as usize >= need + 8)
            .map(|(p, _)| p as u32)
    }

    fn refresh_fsm(&self, page: u32, free: usize) {
        let mut fsm = self.fsm.lock();
        if (page as usize) < fsm.len() {
            fsm[page as usize] = free as u32;
        }
    }

    /// Inserts a tuple, returning its RowId and the raw heap op for logging.
    pub fn insert(&self, tuple: &[u8]) -> Result<(RowId, HeapOp)> {
        if tuple.len() > MAX_TUPLE {
            return Err(StoreError::TupleTooLarge {
                size: tuple.len(),
                max: MAX_TUPLE,
            });
        }
        let mut cell = Vec::with_capacity(tuple.len() + 1);
        cell.push(KIND_DATA);
        cell.extend_from_slice(tuple);
        let rid = self.insert_cell(&cell)?;
        Ok((rid, HeapOp::Insert { rid, cell }))
    }

    fn insert_cell(&self, cell: &[u8]) -> Result<RowId> {
        if let Some(p) = self.pick_page(cell.len()) {
            let guard = self.pool.fetch(self.file, p)?;
            let mut data = guard.write();
            let mut sp = SlottedPage::new(&mut data);
            if let Some(slot) = sp.insert(cell) {
                let free = sp.total_free();
                drop(data);
                self.refresh_fsm(p, free);
                return Ok(RowId { page: p, slot });
            }
        }
        // Allocate a fresh page.
        let (p, guard) = self.pool.allocate(self.file)?;
        let mut data = guard.write();
        let mut sp = SlottedPage::init(&mut data, PageType::Heap);
        let slot = sp
            .insert(cell)
            .expect("cell fits on an empty page by MAX_TUPLE check");
        let free = sp.total_free();
        drop(data);
        self.fsm.lock().push(free as u32);
        Ok(RowId { page: p, slot })
    }

    /// Overwrites the raw cell at `rid` in place with a same-length cell.
    /// Used by the deferred-insert path to fix up pointer columns after
    /// placement but before the insert is WAL-logged; the free-space map
    /// is unchanged because the cell does not grow.
    pub fn patch(&self, rid: RowId, cell: &[u8]) -> Result<()> {
        let guard = self.pool.fetch(self.file, rid.page)?;
        let mut data = guard.write();
        let mut sp = SlottedPage::new(&mut data);
        if !sp.update(rid.slot, cell) {
            return Err(StoreError::Corrupt(format!("heap patch failed at {rid:?}")));
        }
        Ok(())
    }

    /// Fetches the tuple bytes stored under `rid`.
    pub fn get(&self, rid: RowId) -> Result<Vec<u8>> {
        get(&*self.pool, self.file, rid)
    }

    /// True if `rid` names a live tuple.
    pub fn exists(&self, rid: RowId) -> bool {
        exists(&*self.pool, self.file, rid).unwrap_or(false)
    }

    /// Deletes the tuple at `rid` (and any forwarding cells), returning the
    /// heap ops performed.
    pub fn delete(&self, rid: RowId) -> Result<Vec<HeapOp>> {
        let mut ops = Vec::new();
        let mut cur = rid;
        loop {
            if cur.page >= self.page_count() {
                return Err(StoreError::RowNotFound(rid));
            }
            let guard = self.pool.fetch(self.file, cur.page)?;
            let mut data = guard.write();
            let mut sp = SlottedPage::new(&mut data);
            let cell = sp
                .get(cur.slot)
                .ok_or(StoreError::RowNotFound(rid))?
                .to_vec();
            sp.delete(cur.slot);
            let free = sp.total_free();
            drop(data);
            self.refresh_fsm(cur.page, free);
            let kind = cell[0];
            ops.push(HeapOp::Delete {
                rid: cur,
                old: cell.clone(),
            });
            if kind == KIND_FORWARD {
                cur = decode_rowid(&cell[1..])?;
            } else {
                return Ok(ops);
            }
        }
    }

    /// Updates the tuple at `rid`, preserving the RowId. If the new tuple
    /// does not fit in place, the data moves and a forwarding cell is left
    /// behind. Returns the heap ops performed.
    pub fn update(&self, rid: RowId, tuple: &[u8]) -> Result<Vec<HeapOp>> {
        if tuple.len() > MAX_TUPLE - 6 {
            return Err(StoreError::TupleTooLarge {
                size: tuple.len(),
                max: MAX_TUPLE - 6,
            });
        }
        let (phys, old_cell) = resolve(&*self.pool, self.file, rid, |phys, cell| {
            Ok((phys, cell.to_vec()))
        })?;
        let kind = old_cell[0];
        // Build the replacement cell, preserving the record kind so moved
        // tuples keep advertising their original RowId.
        let mut new_cell = Vec::with_capacity(tuple.len() + 7);
        match kind {
            KIND_DATA => {
                new_cell.push(KIND_DATA);
            }
            _ => {
                new_cell.push(KIND_MOVED);
                new_cell.extend_from_slice(&old_cell[1..7]);
            }
        }
        new_cell.extend_from_slice(tuple);

        // Try in-place first.
        {
            let guard = self.pool.fetch(self.file, phys.page)?;
            let mut data = guard.write();
            let mut sp = SlottedPage::new(&mut data);
            if sp.update(phys.slot, &new_cell) {
                let free = sp.total_free();
                drop(data);
                self.refresh_fsm(phys.page, free);
                return Ok(vec![HeapOp::Update {
                    rid: phys,
                    old: old_cell,
                    new: new_cell,
                }]);
            }
        }

        // Relocate: new moved-data cell elsewhere + forward cell at `phys`.
        let origin = match kind {
            KIND_DATA => phys,
            _ => decode_rowid(&old_cell[1..7])?,
        };
        let mut moved = Vec::with_capacity(tuple.len() + 7);
        moved.push(KIND_MOVED);
        encode_rowid(origin, &mut moved);
        moved.extend_from_slice(tuple);
        let new_rid = self.insert_cell(&moved)?;
        let mut fwd = Vec::with_capacity(7);
        fwd.push(KIND_FORWARD);
        encode_rowid(new_rid, &mut fwd);
        let guard = self.pool.fetch(self.file, phys.page)?;
        let mut data = guard.write();
        let mut sp = SlottedPage::new(&mut data);
        let ok = sp.update(phys.slot, &fwd);
        debug_assert!(ok, "forward cell is smaller than any data cell");
        let free = sp.total_free();
        drop(data);
        self.refresh_fsm(phys.page, free);
        Ok(vec![
            HeapOp::Insert {
                rid: new_rid,
                cell: moved,
            },
            HeapOp::Update {
                rid: phys,
                old: old_cell,
                new: fwd,
            },
        ])
    }

    /// Full scan yielding `(client-visible RowId, tuple bytes)`.
    pub fn scan(&self) -> Result<Vec<(RowId, Vec<u8>)>> {
        scan(&*self.pool, self.file)
    }

    /// Applies a raw redo operation at an exact location (recovery path).
    /// `lsn` is stamped on the page; the op is skipped if the page has
    /// already seen it.
    pub fn redo(&self, page: u32, slot: u16, new_cell: Option<&[u8]>, lsn: u64) -> Result<()> {
        // Ensure the page exists.
        while self.page_count() <= page {
            let (_, guard) = self.pool.allocate(self.file)?;
            let mut data = guard.write();
            SlottedPage::init(&mut data, PageType::Heap);
            drop(data);
            self.fsm.lock().push(0);
        }
        let guard = self.pool.fetch(self.file, page)?;
        let mut data = guard.write();
        let mut sp = SlottedPage::new(&mut data);
        if sp.page_type() == PageType::Free {
            sp = SlottedPage::init(&mut data, PageType::Heap);
        }
        if sp.lsn() >= lsn {
            return Ok(()); // already applied before the crash
        }
        match new_cell {
            Some(cell) => {
                if sp.is_live(slot) {
                    let ok = sp.update(slot, cell);
                    if !ok {
                        return Err(StoreError::Corrupt("redo update does not fit".into()));
                    }
                } else if !sp.insert_at(slot, cell) {
                    return Err(StoreError::Corrupt("redo insert does not fit".into()));
                }
            }
            None => {
                sp.delete(slot);
            }
        }
        sp.set_lsn(lsn);
        let free = sp.total_free();
        drop(data);
        self.refresh_fsm(page, free);
        Ok(())
    }

    /// Applies the inverse of `op` to in-memory pages (transaction abort
    /// under no-steal; disk was never touched).
    pub fn undo(&self, op: &HeapOp) -> Result<()> {
        match op {
            HeapOp::Insert { rid, .. } => {
                let guard = self.pool.fetch(self.file, rid.page)?;
                let mut data = guard.write();
                let mut sp = SlottedPage::new(&mut data);
                sp.delete(rid.slot);
                let free = sp.total_free();
                drop(data);
                self.refresh_fsm(rid.page, free);
            }
            HeapOp::Delete { rid, old } => {
                let guard = self.pool.fetch(self.file, rid.page)?;
                let mut data = guard.write();
                let mut sp = SlottedPage::new(&mut data);
                if !sp.insert_at(rid.slot, old) {
                    return Err(StoreError::Corrupt("undo reinsert does not fit".into()));
                }
                let free = sp.total_free();
                drop(data);
                self.refresh_fsm(rid.page, free);
            }
            HeapOp::Update { rid, old, .. } => {
                let guard = self.pool.fetch(self.file, rid.page)?;
                let mut data = guard.write();
                let mut sp = SlottedPage::new(&mut data);
                if !sp.update(rid.slot, old) {
                    return Err(StoreError::Corrupt("undo update does not fit".into()));
                }
                let free = sp.total_free();
                drop(data);
                self.refresh_fsm(rid.page, free);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::FileManager;
    use std::path::PathBuf;

    fn setup(tag: &str) -> (HeapFile, PathBuf) {
        let dir = std::env::temp_dir().join(format!("netmark-heap-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fm = Arc::new(FileManager::open(&dir).unwrap());
        let pool = Arc::new(BufferPool::new(Arc::clone(&fm), 64));
        let f = fm.open_file("t.tbl").unwrap();
        (HeapFile::open(pool, f).unwrap(), dir)
    }

    #[test]
    fn insert_get_round_trip() {
        let (h, dir) = setup("rt");
        let (rid, _) = h.insert(b"tuple one").unwrap();
        assert_eq!(h.get(rid).unwrap(), b"tuple one");
        assert!(h.exists(rid));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn many_inserts_span_pages() {
        let (h, dir) = setup("pages");
        let payload = vec![5u8; 500];
        let rids: Vec<RowId> = (0..100).map(|_| h.insert(&payload).unwrap().0).collect();
        assert!(h.page_count() > 1);
        for rid in &rids {
            assert_eq!(h.get(*rid).unwrap(), payload);
        }
        let scanned = h.scan().unwrap();
        assert_eq!(scanned.len(), 100);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delete_then_get_fails() {
        let (h, dir) = setup("del");
        let (rid, _) = h.insert(b"gone").unwrap();
        h.delete(rid).unwrap();
        assert!(h.get(rid).is_err());
        assert!(!h.exists(rid));
        assert!(h.delete(rid).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn update_grow_preserves_rowid() {
        let (h, dir) = setup("grow");
        // Fill a page so a grown tuple must relocate.
        let (rid, _) = h.insert(b"small").unwrap();
        let filler = vec![1u8; 700];
        while h.page_count() < 2 {
            h.insert(&filler).unwrap();
        }
        let big = vec![9u8; 7000];
        h.update(rid, &big).unwrap();
        assert_eq!(h.get(rid).unwrap(), big, "RowId survives relocation");
        // A scan reports the original RowId for the moved tuple.
        let scanned = h.scan().unwrap();
        let hit = scanned.iter().find(|(r, _)| *r == rid).unwrap();
        assert_eq!(hit.1, big);
        // Update again after relocation still works.
        h.update(rid, b"tiny now").unwrap();
        assert_eq!(h.get(rid).unwrap(), b"tiny now");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delete_forwarded_removes_whole_chain() {
        let (h, dir) = setup("delchain");
        let (rid, _) = h.insert(b"x").unwrap();
        let filler = vec![1u8; 700];
        while h.page_count() < 2 {
            h.insert(&filler).unwrap();
        }
        h.update(rid, &vec![2u8; 7000]).unwrap();
        let before = h.scan().unwrap().len();
        h.delete(rid).unwrap();
        assert!(!h.exists(rid));
        assert_eq!(h.scan().unwrap().len(), before - 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn undo_reverses_ops() {
        let (h, dir) = setup("undo");
        let (rid0, _) = h.insert(b"keep").unwrap();
        let (rid1, op1) = h.insert(b"rollback me").unwrap();
        if let HeapOp::Insert { .. } = &op1 {
            h.undo(&op1).unwrap();
        }
        assert!(!h.exists(rid1));
        assert_eq!(h.get(rid0).unwrap(), b"keep");

        let ops = h.delete(rid0).unwrap();
        for op in ops.iter().rev() {
            h.undo(op).unwrap();
        }
        assert_eq!(h.get(rid0).unwrap(), b"keep");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn redo_is_idempotent() {
        let (h, dir) = setup("redo");
        let cell = {
            let mut c = vec![KIND_DATA];
            c.extend_from_slice(b"redone");
            c
        };
        h.redo(3, 2, Some(&cell), 10).unwrap();
        assert_eq!(h.get(RowId { page: 3, slot: 2 }).unwrap(), b"redone");
        // Replaying at the same LSN is a no-op.
        h.redo(3, 2, Some(&cell), 10).unwrap();
        assert_eq!(h.scan().unwrap().len(), 1);
        // Later LSN delete applies.
        h.redo(3, 2, None, 11).unwrap();
        assert!(!h.exists(RowId { page: 3, slot: 2 }));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
