//! The database facade: tables, indexes, transactions, recovery.
//!
//! Concurrency model: **single writer, many readers**. A write transaction
//! (explicit [`Txn`] or the auto-commit wrappers on [`Table`]) holds the
//! database write lock; every read, the writer's included, pins a
//! [`ReadView`] of the last committed state and never sees uncommitted
//! bytes. A transaction pins no view of its own. This is deliberately
//! modest — NETMARK's store is ingest-then-query — and keeps the recovery
//! story airtight (no-steal/no-force, redo-only WAL; see [`crate::wal`]).
//!
//! Secondary indexes are not WAL-logged. A clean shutdown checkpoints
//! (flushing index pages with everything else); after a crash the WAL is
//! non-empty and every index is rebuilt from its table's heap. A
//! non-unique index holds no entry for a row whose key columns are all
//! `NULL`; live maintenance and the rebuild apply that rule in one place,
//! so the rebuild restores exactly the entries the crash lost.

use crate::btree::{self, BTree};
use crate::buffer::{BufferPool, PageRead, PoolStats};
use crate::catalog::{Catalog, IndexMeta, TableMeta};
use crate::disk::{FileId, FileManager};
use crate::error::{Result, StoreError};
use crate::heap::{self, HeapFile, HeapOp};
use crate::keyenc;
use crate::snapshot::{MvccCounters, MvccStats, PageSource, Snapshot};
use crate::tuple::{decode_row, encode_row, Row, Schema, Value};
use crate::wal::{Lsn, ObjectId, TxId, Wal, WalRecord, WalStats};
use crate::RowId;
use parking_lot::{Mutex, MutexGuard, RwLock};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs for [`Database::open_with`].
#[derive(Debug, Clone)]
pub struct DbOptions {
    /// Buffer pool capacity in pages (8 KiB each).
    pub pool_pages: usize,
    /// Fsync the WAL on every commit (durability) or only at checkpoints
    /// (throughput; used by benchmarks).
    pub sync_commits: bool,
    /// Group commit: with `sync_commits`, commits landing within this
    /// window of the last WAL fsync share the next one instead of each
    /// issuing their own. Zero (the default) fsyncs every commit. A commit
    /// is durable at latest when the window closes at a later commit, a
    /// checkpoint, [`Database::sync_wal`], or shutdown; a crash can lose at
    /// most the commits of one window, always atomically (the redo-only
    /// recovery contract is unchanged — a commit record either reached disk
    /// or the whole transaction is ignored).
    pub group_commit_window: Duration,
    /// Checkpoint automatically once the WAL exceeds this many bytes.
    pub checkpoint_wal_bytes: u64,
    /// How long a checkpoint waits for read views pinning versions older
    /// than the current one to drain before *evicting* them. An evicted
    /// view keeps serving every page in its copy-on-write overlay but
    /// returns [`StoreError::ViewEvicted`] for pages it would have to
    /// fault in from disk (the checkpoint overwrote those images). Readers
    /// therefore bound GC lag instead of blocking it forever.
    pub max_view_lag: Duration,
}

impl Default for DbOptions {
    fn default() -> Self {
        DbOptions {
            pool_pages: 2048, // 16 MiB
            sync_commits: true,
            group_commit_window: Duration::ZERO,
            checkpoint_wal_bytes: 32 << 20,
            max_view_lag: Duration::from_secs(2),
        }
    }
}

/// An open index: catalog entry, B-tree, and the schema positions of its
/// key columns, resolved once at open so per-row key building never does a
/// by-name column lookup.
struct IndexEntry {
    meta: IndexMeta,
    tree: Arc<BTree>,
    positions: Vec<usize>,
}

impl IndexEntry {
    fn new(meta: IndexMeta, tree: Arc<BTree>, schema: &Schema) -> Result<IndexEntry> {
        let positions = meta
            .key_columns
            .iter()
            .map(|col| {
                schema
                    .position(col)
                    .ok_or_else(|| StoreError::Invalid(format!("index column {col} missing")))
            })
            .collect::<Result<Vec<usize>>>()?;
        Ok(IndexEntry {
            meta,
            tree,
            positions,
        })
    }

    /// The memcomparable key of `row` in this index, with the RowId
    /// appended for a non-unique index, or `None` for a row the index
    /// leaves out (see [`leaves_out`]). Insert, delete, update, backfill
    /// and rebuild all take their entries from here, so a rebuilt index
    /// holds exactly the entries live maintenance wrote.
    fn key(&self, row: &Row, rid: RowId) -> Option<Vec<u8>> {
        let col = |p: usize| row.get(p).unwrap_or(&Value::Null);
        if leaves_out(&self.meta, self.positions.iter().map(|&p| col(p))) {
            return None;
        }
        let mut key = Vec::with_capacity(self.positions.len() * 12 + 6);
        for &p in &self.positions {
            keyenc::encode_value(&mut key, col(p));
        }
        if !self.meta.unique {
            keyenc::append_rowid(&mut key, rid);
        }
        Some(key)
    }

    /// Adds an entry for every row of `heap` (index backfill and rebuild).
    fn fill(&self, heap: &HeapFile) -> Result<()> {
        for (rid, bytes) in heap.scan()? {
            if let Some(key) = self.key(&decode_row(&bytes)?, rid) {
                self.tree.insert(&key, &rowid_bytes(rid))?;
            }
        }
        Ok(())
    }
}

/// The partial-index rule: a non-unique index holds no entry for a row
/// whose key columns are all `NULL`, as in SQL, and an exact lookup of an
/// all-`NULL` key in one finds nothing. Unique indexes hold every row.
fn leaves_out<'a>(meta: &IndexMeta, mut key: impl Iterator<Item = &'a Value>) -> bool {
    !meta.unique && key.all(|v| matches!(v, Value::Null))
}

struct TableInner {
    meta: TableMeta,
    heap: HeapFile,
    /// Every open index on this table.
    indexes: RwLock<Vec<IndexEntry>>,
}

/// One registered read view: enough for a checkpoint to decide whether the
/// view pins disk images the flush would overwrite, and to evict it.
struct ViewSlot {
    id: u64,
    version: Lsn,
    evicted: Arc<AtomicBool>,
}

/// The published MVCC snapshot and the registry of views pinning one.
/// Both live under one mutex: a reader clones `current` and registers in
/// the same critical section, so a checkpoint scanning `live` can never
/// miss a reader whose snapshot predates the flush.
struct Views {
    current: Arc<Snapshot>,
    live: Vec<ViewSlot>,
}

struct DbInner {
    fm: Arc<FileManager>,
    pool: Arc<BufferPool>,
    wal: Mutex<Wal>,
    catalog: RwLock<Catalog>,
    tables: RwLock<HashMap<String, Arc<TableInner>>>,
    write_lock: Mutex<()>,
    next_tx: AtomicU64,
    opts: DbOptions,
    /// Current snapshot plus the live-view registry (see [`Views`]).
    views: Mutex<Views>,
    next_view: AtomicU64,
    mvcc: MvccCounters,
}

impl Drop for DbInner {
    fn drop(&mut self) {
        // Clean shutdown flushes commits still inside the group-commit
        // window; only an actual crash can lose them.
        let _ = self.wal.get_mut().sync();
    }
}

impl DbInner {
    /// The currently published snapshot.
    fn current(&self) -> Arc<Snapshot> {
        Arc::clone(&self.views.lock().current)
    }

    /// Swaps in `snap` as the published snapshot, running `with` in the
    /// same critical section. The previous `Arc` and `with`'s result drop
    /// after the lock, so freeing a large overlay never stalls a reader.
    fn install<R>(&self, snap: Snapshot, with: impl FnOnce() -> R) -> R {
        let mut views = self.views.lock();
        let out = with();
        let old = std::mem::replace(&mut views.current, Arc::new(snap));
        drop(views);
        drop(old);
        self.mvcc.publishes.fetch_add(1, Ordering::Relaxed);
        out
    }

    /// Publishes a new MVCC snapshot at `version` (a commit LSN): drains
    /// the buffer pool's dirty log, copies the committed images of those
    /// pages into the previous snapshot's overlay, and installs it with
    /// `with`. Called by the single writer with the write lock held.
    fn publish<R>(&self, version: Lsn, with: impl FnOnce() -> R) -> R {
        let keys = self.pool.take_dirty_log();
        let mut overlay = self.current().overlay.clone();
        for (key, img) in self.pool.snapshot_pages(&keys) {
            overlay.insert(key, img);
        }
        let snap = Snapshot {
            version,
            overlay,
            page_counts: self.fm.all_page_counts(),
        };
        self.install(snap, with)
    }

    /// Publishes a fresh snapshot with an *empty* overlay at the current
    /// version — correct immediately after a checkpoint, when every
    /// committed image has been flushed and disk equals the current state.
    fn publish_clean(&self) {
        self.pool.take_dirty_log();
        let snap = Snapshot {
            version: self.current().version,
            overlay: HashMap::new(),
            page_counts: self.fm.all_page_counts(),
        };
        self.install(snap, || ());
    }

    /// Checkpoint GC: waits up to `max_view_lag` for read views pinning
    /// versions older than the current snapshot to drop, then marks the
    /// stragglers evicted. Views at the current version are untouched —
    /// the flush writes exactly the images they expect.
    fn wait_or_evict_stale_views(&self) {
        let current = self.current().version;
        let deadline = Instant::now() + self.opts.max_view_lag;
        loop {
            let stale: Vec<Arc<AtomicBool>> = {
                let views = self.views.lock();
                views
                    .live
                    .iter()
                    .filter(|v| v.version < current && !v.evicted.load(Ordering::SeqCst))
                    .map(|v| Arc::clone(&v.evicted))
                    .collect()
            };
            if stale.is_empty() {
                return;
            }
            if Instant::now() >= deadline {
                for flag in stale {
                    // Set BEFORE any page is flushed: a reader that loads
                    // disk bytes under a clear flag is guaranteed they
                    // predate this checkpoint's writes.
                    flag.store(true, Ordering::SeqCst);
                    self.mvcc.views_evicted.fetch_add(1, Ordering::Relaxed);
                }
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Flushes all dirty pages, truncates the WAL, persists the catalog,
    /// and republishes a clean snapshot. Caller holds the write lock.
    fn checkpoint_locked(&self) -> Result<()> {
        self.wait_or_evict_stale_views();
        self.pool.flush_all()?;
        let mut wal = self.wal.lock();
        wal.append(&WalRecord::Checkpoint)?;
        let last = wal.reset()?;
        drop(wal);
        let mut cat = self.catalog.write();
        cat.last_lsn = last;
        cat.save(self.fm.dir())?;
        drop(cat);
        self.publish_clean();
        Ok(())
    }
}

/// An open database directory.
#[derive(Clone)]
pub struct Database {
    inner: Arc<DbInner>,
}

/// Handle to one table, for writing: name, schema and auto-commit
/// writes; [`Txn`] takes it for transactional writes. Cheap to clone; all
/// methods are `&self`. Reads go through a [`ReadView`], which only ever
/// sees committed state.
#[derive(Clone)]
pub struct Table {
    db: Arc<DbInner>,
    t: Arc<TableInner>,
}

fn table_file(id: ObjectId) -> String {
    format!("t{}.tbl", id.0)
}

fn index_file(id: ObjectId) -> String {
    format!("i{}.idx", id.0)
}

impl Database {
    /// Opens (or creates) the database in `dir` with default options.
    pub fn open(dir: &Path) -> Result<Database> {
        Database::open_with(dir, DbOptions::default())
    }

    /// Opens (or creates) the database in `dir`.
    pub fn open_with(dir: &Path, opts: DbOptions) -> Result<Database> {
        let fm = Arc::new(FileManager::open(dir)?);
        let pool = Arc::new(BufferPool::new(Arc::clone(&fm), opts.pool_pages));
        let catalog = Catalog::load(dir)?;
        let (wal, pending) = Wal::open(&dir.join("wal.log"), catalog.last_lsn)?;
        let inner = Arc::new(DbInner {
            fm,
            pool,
            wal: Mutex::new(wal),
            catalog: RwLock::new(catalog),
            tables: RwLock::new(HashMap::new()),
            write_lock: Mutex::new(()),
            next_tx: AtomicU64::new(1),
            opts,
            views: Mutex::new(Views {
                current: Arc::new(Snapshot::empty()),
                live: Vec::new(),
            }),
            next_view: AtomicU64::new(0),
            mvcc: MvccCounters::default(),
        });
        let db = Database { inner };
        // Open every catalogued table so handles and indexes are live.
        let names: Vec<String> = db.inner.catalog.read().tables.keys().cloned().collect();
        for name in names {
            db.open_table(&name)?;
        }
        if !pending.is_empty() {
            db.recover(pending)?;
        }
        // First snapshot: everything on disk is committed state.
        db.inner.publish_clean();
        Ok(db)
    }

    /// Root directory.
    pub fn dir(&self) -> &Path {
        self.inner.fm.dir()
    }

    /// Buffer pool counters (for the ablation bench).
    pub fn pool_stats(&self) -> PoolStats {
        self.inner.pool.stats()
    }

    /// WAL commit/fsync counters (group-commit instrumentation).
    pub fn wal_stats(&self) -> WalStats {
        self.inner.wal.lock().stats()
    }

    /// Durably flushes any commits whose fsync was deferred by the
    /// group-commit window.
    pub fn sync_wal(&self) -> Result<()> {
        self.inner.wal.lock().sync()
    }

    fn open_table(&self, name: &str) -> Result<Arc<TableInner>> {
        if let Some(t) = self.inner.tables.read().get(name) {
            return Ok(Arc::clone(t));
        }
        let cat = self.inner.catalog.read();
        let meta = cat
            .tables
            .get(name)
            .ok_or_else(|| StoreError::NoSuchObject(name.to_string()))?
            .clone();
        let file = self.inner.fm.open_file(&table_file(meta.id))?;
        let heap = HeapFile::open(Arc::clone(&self.inner.pool), file)?;
        let mut indexes = Vec::new();
        for im in cat.indexes_of(name) {
            let f = self.inner.fm.open_file(&index_file(im.id))?;
            let tree = BTree::open(Arc::clone(&self.inner.pool), f)?;
            indexes.push(IndexEntry::new(im.clone(), Arc::new(tree), &meta.schema)?);
        }
        drop(cat);
        let t = Arc::new(TableInner {
            meta,
            heap,
            indexes: RwLock::new(indexes),
        });
        self.inner
            .tables
            .write()
            .insert(name.to_string(), Arc::clone(&t));
        Ok(t)
    }

    /// Creates a table. Errors if the name is taken.
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<Table> {
        let _w = self.inner.write_lock.lock();
        {
            let mut cat = self.inner.catalog.write();
            if cat.tables.contains_key(name) {
                return Err(StoreError::AlreadyExists(name.to_string()));
            }
            let id = cat.allocate_object();
            cat.tables.insert(
                name.to_string(),
                TableMeta {
                    id,
                    name: name.to_string(),
                    schema,
                },
            );
            cat.save(self.inner.fm.dir())?;
        }
        drop(_w);
        self.table(name)
    }

    /// Returns a handle to an existing table.
    pub fn table(&self, name: &str) -> Result<Table> {
        let t = self.open_table(name)?;
        Ok(Table {
            db: Arc::clone(&self.inner),
            t,
        })
    }

    /// True if `name` is a catalogued table.
    pub fn has_table(&self, name: &str) -> bool {
        self.inner.catalog.read().tables.contains_key(name)
    }

    /// Names of all catalogued tables.
    pub fn table_names(&self) -> Vec<String> {
        self.inner.catalog.read().tables.keys().cloned().collect()
    }

    /// Creates a secondary index over `key_columns` of `table` and builds
    /// it from existing rows.
    pub fn create_index(
        &self,
        table: &str,
        name: &str,
        key_columns: &[&str],
        unique: bool,
    ) -> Result<()> {
        let t = self.open_table(table)?;
        let _w = self.inner.write_lock.lock();
        let meta = {
            let mut cat = self.inner.catalog.write();
            if cat.indexes.contains_key(name) {
                return Err(StoreError::AlreadyExists(name.to_string()));
            }
            for k in key_columns {
                if t.meta.schema.position(k).is_none() {
                    return Err(StoreError::Invalid(format!(
                        "no column {k} in table {table}"
                    )));
                }
            }
            let id = cat.allocate_object();
            let meta = IndexMeta {
                id,
                name: name.to_string(),
                table: table.to_string(),
                key_columns: key_columns.iter().map(|s| s.to_string()).collect(),
                unique,
            };
            cat.indexes.insert(name.to_string(), meta.clone());
            cat.save(self.inner.fm.dir())?;
            meta
        };
        let f = self.inner.fm.open_file(&index_file(meta.id))?;
        let tree = Arc::new(BTree::open(Arc::clone(&self.inner.pool), f)?);
        let entry = IndexEntry::new(meta, tree, &t.meta.schema)?;
        entry.fill(&t.heap)?;
        t.indexes.write().push(entry);
        // Publish at the current version so new read views see the index
        // (DDL is not WAL-versioned; the backfill pages ride the overlay).
        let version = self.inner.current().version;
        self.inner.publish(version, || ());
        Ok(())
    }

    /// Begins an explicit write transaction. Holds the database write lock
    /// until commit/abort/drop (drop aborts). The transaction pins no read
    /// view; a writer that must read pins one with [`Database::begin_read`]
    /// and drops it before commit, so a checkpointing commit never waits
    /// on it.
    pub fn begin(&self) -> Txn<'_> {
        let guard = self.inner.write_lock.lock();
        let tx = self.inner.next_tx.fetch_add(1, Ordering::Relaxed);
        Txn {
            db: &self.inner,
            _guard: guard,
            tx,
            ops: Vec::new(),
            deferred: Vec::new(),
            began: false,
            finished: false,
        }
    }

    /// Pins a point-in-time read view of the last committed state. Never
    /// waits for the writer's transaction: pinning clones the published
    /// snapshot under a short registry mutex (held only for that clone and
    /// a push), and subsequent page reads take no page latch. The view
    /// stays pinned (checkpoints wait up to [`DbOptions::max_view_lag`]
    /// for it) until every clone is dropped.
    pub fn begin_read(&self) -> ReadView {
        self.begin_read_with(|| ()).0
    }

    /// [`Database::begin_read`], also running `pin` (which should only
    /// clone) where the snapshot is cloned: it pins state published with
    /// [`Txn::commit_with`] as of the view's commit.
    pub fn begin_read_with<T>(&self, pin: impl FnOnce() -> T) -> (ReadView, T) {
        let evicted = Arc::new(AtomicBool::new(false));
        // Clone the snapshot and register in one critical section so a
        // checkpoint scanning the registry either sees this view or is
        // guaranteed the view's snapshot postdates its own publication.
        let (snap, id, pinned) = {
            let mut views = self.inner.views.lock();
            let snap = Arc::clone(&views.current);
            let pinned = pin();
            let id = self.inner.next_view.fetch_add(1, Ordering::Relaxed);
            views.live.push(ViewSlot {
                id,
                version: snap.version,
                evicted: Arc::clone(&evicted),
            });
            (snap, id, pinned)
        };
        self.inner.mvcc.views_opened.fetch_add(1, Ordering::Relaxed);
        let view = ReadView {
            core: Arc::new(ViewCore {
                db: Arc::clone(&self.inner),
                id,
                src: PageSource {
                    snap,
                    pool: Arc::clone(&self.inner.pool),
                    evicted,
                },
            }),
        };
        (view, pinned)
    }

    /// MVCC publication / read-view counters.
    pub fn mvcc_stats(&self) -> MvccStats {
        let (snap, live_views) = {
            let views = self.inner.views.lock();
            (Arc::clone(&views.current), views.live.len() as u64)
        };
        MvccStats {
            version: snap.version,
            live_views,
            overlay_pages: snap.overlay.len() as u64,
            overlay_bytes: snap.overlay.values().map(|p| p.len() as u64).sum(),
            ..self.inner.mvcc.snapshot()
        }
    }

    /// Flushes all dirty pages, truncates the WAL, and persists the
    /// catalog. Called automatically when the WAL grows large. Waits up to
    /// [`DbOptions::max_view_lag`] for stale read views, then evicts them.
    pub fn checkpoint(&self) -> Result<()> {
        let _w = self.inner.write_lock.lock();
        self.inner.checkpoint_locked()
    }

    /// Crash recovery: redo committed WAL operations, checkpoint, rebuild
    /// all indexes.
    fn recover(&self, records: Vec<(u64, WalRecord)>) -> Result<()> {
        let committed: std::collections::HashSet<TxId> = records
            .iter()
            .filter_map(|(_, r)| match r {
                WalRecord::Commit { tx } => Some(*tx),
                _ => None,
            })
            .collect();
        for (lsn, rec) in &records {
            let (obj, page, slot, cell) = match rec {
                WalRecord::Insert {
                    tx,
                    obj,
                    page,
                    slot,
                    data,
                } if committed.contains(tx) => (*obj, *page, *slot, Some(data.clone())),
                WalRecord::Update {
                    tx,
                    obj,
                    page,
                    slot,
                    new,
                    ..
                } if committed.contains(tx) => (*obj, *page, *slot, Some(new.clone())),
                WalRecord::Delete {
                    tx,
                    obj,
                    page,
                    slot,
                    ..
                } if committed.contains(tx) => (*obj, *page, *slot, None),
                _ => continue,
            };
            let name = {
                let cat = self.inner.catalog.read();
                cat.table_by_id(obj).map(|t| t.name.clone())
            };
            // A table dropped after the logged op: skip.
            let Some(name) = name else { continue };
            let t = self.open_table(&name)?;
            t.heap.redo(page, slot, cell.as_deref(), *lsn)?;
        }
        self.inner.checkpoint_locked()?;
        self.rebuild_indexes()?;
        self.inner.pool.flush_all()?;
        Ok(())
    }

    /// Drops and rebuilds every index from its table's heap.
    pub fn rebuild_indexes(&self) -> Result<()> {
        let names = self.table_names();
        for name in names {
            let t = self.open_table(&name)?;
            let metas: Vec<IndexMeta> = t.indexes.read().iter().map(|e| e.meta.clone()).collect();
            let mut rebuilt = Vec::new();
            for m in metas {
                let fname = index_file(m.id);
                let f = self.inner.fm.open_file(&fname)?;
                self.inner.pool.discard_file(f);
                self.inner.fm.truncate(f)?;
                let tree = Arc::new(BTree::open(Arc::clone(&self.inner.pool), f)?);
                let entry = IndexEntry::new(m, tree, &t.meta.schema)?;
                entry.fill(&t.heap)?;
                rebuilt.push(entry);
            }
            *t.indexes.write() = rebuilt;
        }
        Ok(())
    }
}

fn rowid_bytes(rid: RowId) -> [u8; 6] {
    let mut b = [0u8; 6];
    b[0..4].copy_from_slice(&rid.page.to_le_bytes());
    b[4..6].copy_from_slice(&rid.slot.to_le_bytes());
    b
}

fn rowid_from_bytes(b: &[u8]) -> Result<RowId> {
    if b.len() < 6 {
        return Err(StoreError::Corrupt("short rowid in index".into()));
    }
    Ok(RowId {
        page: u32::from_le_bytes(b[0..4].try_into().unwrap()),
        slot: u16::from_le_bytes(b[4..6].try_into().unwrap()),
    })
}

enum TxOp {
    Heap(ObjectId, HeapOp),
    IndexInsert {
        tree: Arc<BTree>,
        key: Vec<u8>,
    },
    IndexDelete {
        tree: Arc<BTree>,
        key: Vec<u8>,
        val: Vec<u8>,
    },
}

/// An explicit write transaction. Commit with [`Txn::commit`]; dropping an
/// uncommitted transaction aborts it.
pub struct Txn<'a> {
    db: &'a DbInner,
    _guard: MutexGuard<'a, ()>,
    tx: TxId,
    ops: Vec<TxOp>,
    /// Indexes into `ops` of heap inserts whose WAL records are queued
    /// (not yet appended), plus the file that backs each one. Sorted,
    /// because tokens are `ops.len()` at push time.
    deferred: Vec<(usize, FileId)>,
    began: bool,
    finished: bool,
}

impl<'a> Txn<'a> {
    fn ensure_begun(&mut self) -> Result<()> {
        if self.finished {
            return Err(StoreError::TxnFinished);
        }
        if !self.began {
            self.db
                .wal
                .lock()
                .append(&WalRecord::Begin { tx: self.tx })?;
            self.began = true;
        }
        Ok(())
    }

    fn log_heap(&mut self, table: &Table, op: &HeapOp) -> Result<()> {
        Self::log_heap_raw(
            self.db,
            self.tx,
            table.t.meta.id,
            table.t.heap.file_id(),
            op,
        )
    }

    fn log_heap_raw(
        db: &DbInner,
        tx: TxId,
        obj: ObjectId,
        file: FileId,
        op: &HeapOp,
    ) -> Result<()> {
        let rec = match op {
            HeapOp::Insert { rid, cell } => WalRecord::Insert {
                tx,
                obj,
                page: rid.page,
                slot: rid.slot,
                data: cell.clone(),
            },
            HeapOp::Delete { rid, old } => WalRecord::Delete {
                tx,
                obj,
                page: rid.page,
                slot: rid.slot,
                old: old.clone(),
            },
            HeapOp::Update { rid, old, new } => WalRecord::Update {
                tx,
                obj,
                page: rid.page,
                slot: rid.slot,
                old: old.clone(),
                new: new.clone(),
            },
        };
        let lsn = db.wal.lock().append(&rec)?;
        // Stamp the page so redo is idempotent.
        let (HeapOp::Insert { rid, .. } | HeapOp::Delete { rid, .. } | HeapOp::Update { rid, .. }) =
            op;
        let guard = db.pool.fetch(file, rid.page)?;
        let mut data = guard.write();
        crate::page::SlottedPage::new(&mut data).set_lsn(lsn);
        Ok(())
    }

    /// Inserts `row` into `table`, returning its RowId.
    pub fn insert(&mut self, table: &Table, row: &Row) -> Result<RowId> {
        self.ensure_begun()?;
        // Unique index pre-checks.
        for e in table.t.indexes.read().iter().filter(|e| e.meta.unique) {
            if let Some(key) = e.key(row, RowId::ZERO) {
                if e.tree.get(&key)?.is_some() {
                    return Err(StoreError::Invalid(format!(
                        "unique index {} violated",
                        e.meta.name
                    )));
                }
            }
        }
        let mut bytes = Vec::with_capacity(64);
        encode_row(row, &mut bytes);
        let (rid, op) = table.t.heap.insert(&bytes)?;
        self.log_heap(table, &op)?;
        self.ops.push(TxOp::Heap(table.t.meta.id, op));
        self.index_insert(table, row, rid)?;
        Ok(rid)
    }

    /// Adds `row`, placed at `rid`, to every index of `table`.
    fn index_insert(&mut self, table: &Table, row: &Row, rid: RowId) -> Result<()> {
        for e in table.t.indexes.read().iter() {
            let Some(key) = e.key(row, rid) else {
                continue;
            };
            e.tree.insert(&key, &rowid_bytes(rid))?;
            self.ops.push(TxOp::IndexInsert {
                tree: Arc::clone(&e.tree),
                key,
            });
        }
        Ok(())
    }

    /// Inserts `row` without unique-index pre-checks and with its WAL
    /// record queued instead of appended. For bulk loads where the caller
    /// guarantees freshly allocated keys (e.g. monotonically assigned node
    /// ids): a violated guarantee silently shadows the older row in the
    /// unique index instead of erroring. The heap and index writes happen
    /// immediately (the row is placed and abortable, and invisible to read
    /// views until commit), but until [`Txn::flush_deferred`] runs the
    /// caller may rewrite same-size columns in place with
    /// [`Txn::patch_deferred`] — so bulk ingest can resolve forward
    /// pointers (sibling/child rowids) without a second heap update and
    /// WAL record per row. Returns the RowId and a token for patching.
    /// Commit flushes any remaining deferred records automatically, in
    /// insert order.
    pub fn insert_unchecked_deferred(
        &mut self,
        table: &Table,
        row: &Row,
    ) -> Result<(RowId, usize)> {
        self.ensure_begun()?;
        let mut bytes = Vec::with_capacity(64);
        encode_row(row, &mut bytes);
        let (rid, op) = table.t.heap.insert(&bytes)?;
        let token = self.ops.len();
        self.deferred.push((token, table.t.heap.file_id()));
        self.ops.push(TxOp::Heap(table.t.meta.id, op));
        self.index_insert(table, row, rid)?;
        Ok((rid, token))
    }

    /// Rewrites the full row of a pending deferred insert in place. The
    /// re-encoded row must be byte-for-byte the same length (pointer
    /// columns use the fixed-width `Value::Rowid` encoding precisely so
    /// this holds) and must not change any indexed column. Both the page
    /// cell and the queued WAL image are updated, so redo replays the
    /// final bytes.
    pub fn patch_deferred(&mut self, table: &Table, token: usize, row: &Row) -> Result<()> {
        if self.finished {
            return Err(StoreError::TxnFinished);
        }
        if self.deferred.binary_search_by_key(&token, |d| d.0).is_err() {
            return Err(StoreError::Invalid(
                "patch_deferred: token is not a pending deferred insert".into(),
            ));
        }
        let mut bytes = Vec::with_capacity(64);
        encode_row(row, &mut bytes);
        let TxOp::Heap(_, HeapOp::Insert { rid, cell }) = &mut self.ops[token] else {
            return Err(StoreError::Invalid(
                "patch_deferred: token does not name an insert".into(),
            ));
        };
        // The heap cell is a 1-byte kind prefix plus the tuple.
        if cell.len() != bytes.len() + 1 {
            return Err(StoreError::Invalid(format!(
                "patch_deferred: row size changed ({} -> {} bytes)",
                cell.len() - 1,
                bytes.len()
            )));
        }
        cell.truncate(1);
        cell.extend_from_slice(&bytes);
        table.t.heap.patch(*rid, cell)
    }

    /// Appends the WAL records for all pending deferred inserts, in insert
    /// order. After this the rows are no longer patchable.
    pub fn flush_deferred(&mut self) -> Result<()> {
        for (token, file) in std::mem::take(&mut self.deferred) {
            let TxOp::Heap(obj, op) = &self.ops[token] else {
                unreachable!("deferred token always names a heap op");
            };
            Self::log_heap_raw(self.db, self.tx, *obj, file, op)?;
        }
        Ok(())
    }

    /// Deletes the row at `rid` from `table`.
    pub fn delete(&mut self, table: &Table, rid: RowId) -> Result<()> {
        self.ensure_begun()?;
        let old_row = decode_row(&table.t.heap.get(rid)?)?;
        for op in table.t.heap.delete(rid)? {
            self.log_heap(table, &op)?;
            self.ops.push(TxOp::Heap(table.t.meta.id, op));
        }
        for e in table.t.indexes.read().iter() {
            let Some(key) = e.key(&old_row, rid) else {
                continue;
            };
            e.tree.delete(&key)?;
            self.ops.push(TxOp::IndexDelete {
                tree: Arc::clone(&e.tree),
                key,
                val: rowid_bytes(rid).to_vec(),
            });
        }
        Ok(())
    }

    /// Replaces the row at `rid`; the RowId remains valid.
    pub fn update(&mut self, table: &Table, rid: RowId, row: &Row) -> Result<()> {
        self.ensure_begun()?;
        let old_row = decode_row(&table.t.heap.get(rid)?)?;
        let mut bytes = Vec::with_capacity(64);
        encode_row(row, &mut bytes);
        for op in table.t.heap.update(rid, &bytes)? {
            self.log_heap(table, &op)?;
            self.ops.push(TxOp::Heap(table.t.meta.id, op));
        }
        for e in table.t.indexes.read().iter() {
            let old_key = e.key(&old_row, rid);
            let new_key = e.key(row, rid);
            if old_key == new_key {
                continue;
            }
            // Either side may be absent: a key moving to or from `NULL`.
            if let Some(key) = old_key {
                e.tree.delete(&key)?;
                self.ops.push(TxOp::IndexDelete {
                    tree: Arc::clone(&e.tree),
                    key,
                    val: rowid_bytes(rid).to_vec(),
                });
            }
            if let Some(key) = new_key {
                e.tree.insert(&key, &rowid_bytes(rid))?;
                self.ops.push(TxOp::IndexInsert {
                    tree: Arc::clone(&e.tree),
                    key,
                });
            }
        }
        Ok(())
    }

    /// Commits: appends and (optionally) fsyncs the commit record, then
    /// publishes the new MVCC snapshot at the commit LSN.
    pub fn commit(self) -> Result<()> {
        self.commit_with(|| ())
    }

    /// [`Txn::commit`], also running `install` (which should only swap
    /// pointers) where the new snapshot is published, so a view pinned with
    /// [`Database::begin_read_with`] sees both or neither. A commit that
    /// fails before publishing never runs it; an empty one runs it alone.
    pub fn commit_with<R>(mut self, install: impl FnOnce() -> R) -> Result<R> {
        if self.finished {
            return Err(StoreError::TxnFinished);
        }
        self.flush_deferred()?;
        self.finished = true;
        if !self.began {
            return Ok(install());
        }
        let mut wal = self.db.wal.lock();
        let commit_lsn = wal.append(&WalRecord::Commit { tx: self.tx })?;
        if self.db.opts.sync_commits {
            wal.sync_within(self.db.opts.group_commit_window)?;
        }
        let big = wal.size()? > self.db.opts.checkpoint_wal_bytes;
        drop(wal);
        // Readers switch to the new version the instant this returns.
        let installed = self.db.publish(commit_lsn, install);
        if big {
            // We already hold the write lock.
            self.db.checkpoint_locked()?;
        }
        Ok(installed)
    }

    /// Rolls back every operation (in-memory; disk never saw them).
    pub fn abort(mut self) -> Result<()> {
        self.abort_inner()
    }

    fn abort_inner(&mut self) -> Result<()> {
        if self.finished {
            return Ok(());
        }
        self.finished = true;
        for op in self.ops.drain(..).rev() {
            match op {
                TxOp::Heap(obj, hop) => {
                    let name = self
                        .db
                        .catalog
                        .read()
                        .table_by_id(obj)
                        .map(|t| t.name.clone());
                    if let Some(t) = name.and_then(|n| self.db.tables.read().get(&n).cloned()) {
                        t.heap.undo(&hop)?;
                    }
                }
                TxOp::IndexInsert { tree, key } => {
                    tree.delete(&key)?;
                }
                TxOp::IndexDelete { tree, key, val } => {
                    tree.insert(&key, &val)?;
                }
            }
        }
        if self.began {
            self.db
                .wal
                .lock()
                .append(&WalRecord::Abort { tx: self.tx })?;
        }
        Ok(())
    }
}

impl Drop for Txn<'_> {
    fn drop(&mut self) {
        let _ = self.abort_inner();
    }
}

impl Table {
    /// Table name.
    pub fn name(&self) -> &str {
        &self.t.meta.name
    }

    /// Declared schema.
    pub fn schema(&self) -> &Schema {
        &self.t.meta.schema
    }

    /// Auto-commit insert.
    pub fn insert(&self, row: &Row) -> Result<RowId> {
        let db = Database {
            inner: Arc::clone(&self.db),
        };
        let mut tx = db.begin();
        let rid = tx.insert(self, row)?;
        tx.commit()?;
        Ok(rid)
    }

    /// Auto-commit delete.
    pub fn delete(&self, rid: RowId) -> Result<()> {
        let db = Database {
            inner: Arc::clone(&self.db),
        };
        let mut tx = db.begin();
        tx.delete(self, rid)?;
        tx.commit()
    }

    /// Auto-commit update.
    pub fn update(&self, rid: RowId, row: &Row) -> Result<()> {
        let db = Database {
            inner: Arc::clone(&self.db),
        };
        let mut tx = db.begin();
        tx.update(self, rid, row)?;
        tx.commit()
    }
}

/// Shared state of one pinned read view; unregisters from the database's
/// view registry when the last clone drops.
struct ViewCore {
    db: Arc<DbInner>,
    id: u64,
    src: PageSource,
}

impl Drop for ViewCore {
    fn drop(&mut self) {
        self.db.views.lock().live.retain(|v| v.id != self.id);
    }
}

/// A pinned point-in-time view of the database: repeatable reads with no
/// page locks, fully isolated from the single writer. Clones share the
/// pin; the view unpins when the last clone drops. Obtain tables with
/// [`ReadView::table`].
#[derive(Clone)]
pub struct ReadView {
    core: Arc<ViewCore>,
}

impl ReadView {
    /// The commit LSN this view is pinned at (0 = freshly opened store).
    pub fn version(&self) -> u64 {
        self.core.src.snap.version
    }

    /// True once a checkpoint has reclaimed disk images this view depended
    /// on (it exceeded [`DbOptions::max_view_lag`]). Reads that hit the
    /// view's overlay still succeed; others return
    /// [`StoreError::ViewEvicted`].
    pub fn is_evicted(&self) -> bool {
        self.core.src.evicted.load(Ordering::SeqCst)
    }

    /// Read-only access to `name` as of this view's version.
    pub fn table(&self, name: &str) -> Result<ViewTable> {
        let db = Database {
            inner: Arc::clone(&self.core.db),
        };
        let t = db.open_table(name)?;
        let indexes = t
            .indexes
            .read()
            .iter()
            .map(|e| (e.meta.clone(), e.tree.file_id()))
            .collect();
        Ok(ViewTable {
            core: Arc::clone(&self.core),
            meta: t.meta.clone(),
            heap_file: t.heap.file_id(),
            indexes,
        })
    }
}

impl std::fmt::Debug for ReadView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadView")
            .field("version", &self.version())
            .field("evicted", &self.is_evicted())
            .finish()
    }
}

/// Read-only table access through a [`ReadView`], the one way to read a
/// table: every read is evaluated against the view's pinned snapshot.
/// Never takes a page lock and never observes writes committed after the
/// view began, nor the writer's uncommitted ones.
#[derive(Clone)]
pub struct ViewTable {
    core: Arc<ViewCore>,
    meta: TableMeta,
    heap_file: FileId,
    /// Indexes known at view-table creation; ones whose file postdates the
    /// snapshot (no pages yet) are treated as absent.
    indexes: Vec<(IndexMeta, FileId)>,
}

impl ViewTable {
    /// Table name.
    pub fn name(&self) -> &str {
        &self.meta.name
    }

    /// Declared schema.
    pub fn schema(&self) -> &Schema {
        &self.meta.schema
    }

    fn src(&self) -> &PageSource {
        &self.core.src
    }

    /// Fetches the row at `rid` as of the view.
    pub fn get(&self, rid: RowId) -> Result<Row> {
        decode_row(&heap::get(self.src(), self.heap_file, rid)?)
    }

    /// Full scan as of the view.
    pub fn scan(&self) -> Result<Vec<(RowId, Row)>> {
        heap::scan(self.src(), self.heap_file)?
            .into_iter()
            .map(|(rid, b)| Ok((rid, decode_row(&b)?)))
            .collect()
    }

    /// Number of rows live at the view's version (scans).
    pub fn count(&self) -> Result<usize> {
        Ok(heap::scan(self.src(), self.heap_file)?.len())
    }

    /// The catalog entry and root page of `index` as of the view.
    fn index(&self, index: &str) -> Result<(&IndexMeta, FileId, u32)> {
        let (meta, file) = self
            .indexes
            .iter()
            .find(|(m, _)| m.name == index)
            .ok_or_else(|| StoreError::NoSuchObject(index.to_string()))?;
        // An index created after this view's snapshot has no pages in it;
        // report it absent rather than reading unformatted pages.
        if self.src().page_count(*file) < 2 {
            return Err(StoreError::NoSuchObject(index.to_string()));
        }
        Ok((meta, *file, btree::read_root(self.src(), *file)?))
    }

    /// Exact-match index lookup as of the view: RowIds of rows whose key
    /// columns equal `key` (all such rows for a non-unique index).
    pub fn index_lookup(&self, index: &str, key: &[Value]) -> Result<Vec<RowId>> {
        let (meta, file, root) = self.index(index)?;
        if key.len() != meta.key_columns.len() {
            return Err(StoreError::Invalid(format!(
                "index {} expects {} key values, got {}",
                meta.name,
                meta.key_columns.len(),
                key.len()
            )));
        }
        if leaves_out(meta, key.iter()) {
            return Ok(vec![]);
        }
        if meta.unique {
            let k = keyenc::encode_key(key);
            return match btree::get(self.src(), file, root, &k)? {
                Some(v) => Ok(vec![rowid_from_bytes(&v)?]),
                None => Ok(vec![]),
            };
        }
        let (lo, hi) = keyenc::prefix_range(key);
        btree::range(self.src(), file, root, &lo, &hi)?
            .into_iter()
            .map(|(_, v)| rowid_from_bytes(&v))
            .collect()
    }

    /// Every entry of `index` as of the view, in key order: the encoded key
    /// (RowId suffix included for a non-unique index) and the row it names.
    pub fn index_entries(&self, index: &str) -> Result<Vec<(Vec<u8>, RowId)>> {
        let (_, file, root) = self.index(index)?;
        btree::scan_all(self.src(), file, root)?
            .into_iter()
            .map(|(k, v)| Ok((k, rowid_from_bytes(&v)?)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::ColumnType;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("netmark-db-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// `name` as of a fresh view of `db`.
    fn view(db: &Database, name: &str) -> ViewTable {
        db.begin_read().table(name).unwrap()
    }

    fn people_schema() -> Schema {
        Schema::new(&[
            ("id", ColumnType::Int),
            ("name", ColumnType::Text),
            ("score", ColumnType::Float),
        ])
    }

    #[test]
    fn create_insert_get() {
        let dir = tmpdir("basic");
        let db = Database::open(&dir).unwrap();
        let t = db.create_table("people", people_schema()).unwrap();
        let rid = t
            .insert(&vec![Value::Int(1), Value::from("ada"), Value::Float(9.5)])
            .unwrap();
        let v = view(&db, "people");
        assert_eq!(v.get(rid).unwrap()[1], Value::from("ada"));
        assert_eq!(v.count().unwrap(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_table_rejected() {
        let dir = tmpdir("dup");
        let db = Database::open(&dir).unwrap();
        db.create_table("t", people_schema()).unwrap();
        assert!(matches!(
            db.create_table("t", people_schema()),
            Err(StoreError::AlreadyExists(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn index_lookup_unique_and_multi() {
        let dir = tmpdir("idx");
        let db = Database::open(&dir).unwrap();
        let t = db.create_table("people", people_schema()).unwrap();
        db.create_index("people", "by_id", &["id"], true).unwrap();
        db.create_index("people", "by_name", &["name"], false)
            .unwrap();
        for i in 0..50i64 {
            t.insert(&vec![
                Value::Int(i),
                Value::from(if i % 2 == 0 { "even" } else { "odd" }),
                Value::Float(i as f64),
            ])
            .unwrap();
        }
        let v = view(&db, "people");
        let hit = v.index_lookup("by_id", &[Value::Int(7)]).unwrap();
        assert_eq!(hit.len(), 1);
        assert_eq!(v.get(hit[0]).unwrap()[0], Value::Int(7));
        let evens = v.index_lookup("by_name", &[Value::from("even")]).unwrap();
        assert_eq!(evens.len(), 25);
        // Unique violation.
        assert!(t
            .insert(&vec![Value::Int(7), Value::from("x"), Value::Null])
            .is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn index_backfill_on_create() {
        let dir = tmpdir("backfill");
        let db = Database::open(&dir).unwrap();
        let t = db.create_table("people", people_schema()).unwrap();
        for i in 0..20i64 {
            t.insert(&vec![Value::Int(i), Value::from("n"), Value::Null])
                .unwrap();
        }
        db.create_index("people", "by_id", &["id"], true).unwrap();
        let v = view(&db, "people");
        assert_eq!(v.index_lookup("by_id", &[Value::Int(19)]).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delete_and_update_maintain_indexes() {
        let dir = tmpdir("maint");
        let db = Database::open(&dir).unwrap();
        let t = db.create_table("people", people_schema()).unwrap();
        db.create_index("people", "by_name", &["name"], false)
            .unwrap();
        let rid = t
            .insert(&vec![Value::Int(1), Value::from("old"), Value::Null])
            .unwrap();
        t.update(rid, &vec![Value::Int(1), Value::from("new"), Value::Null])
            .unwrap();
        let v = view(&db, "people");
        assert!(v
            .index_lookup("by_name", &[Value::from("old")])
            .unwrap()
            .is_empty());
        assert_eq!(
            v.index_lookup("by_name", &[Value::from("new")]).unwrap(),
            vec![rid]
        );
        t.delete(rid).unwrap();
        let v = view(&db, "people");
        assert!(v
            .index_lookup("by_name", &[Value::from("new")])
            .unwrap()
            .is_empty());
        assert!(matches!(v.get(rid), Err(StoreError::RowNotFound(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn abort_rolls_back_heap_and_indexes() {
        let dir = tmpdir("abort");
        let db = Database::open(&dir).unwrap();
        let t = db.create_table("people", people_schema()).unwrap();
        db.create_index("people", "by_id", &["id"], true).unwrap();
        let keep = t
            .insert(&vec![Value::Int(1), Value::from("keep"), Value::Null])
            .unwrap();
        {
            let mut tx = db.begin();
            tx.insert(&t, &vec![Value::Int(2), Value::from("bye"), Value::Null])
                .unwrap();
            tx.delete(&t, keep).unwrap();
            tx.abort().unwrap();
        }
        let v = view(&db, "people");
        assert_eq!(v.count().unwrap(), 1);
        assert_eq!(v.get(keep).unwrap()[1], Value::from("keep"));
        assert_eq!(
            v.index_lookup("by_id", &[Value::Int(1)]).unwrap(),
            vec![keep]
        );
        assert!(v
            .index_lookup("by_id", &[Value::Int(2)])
            .unwrap()
            .is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drop_without_commit_aborts() {
        let dir = tmpdir("dropabort");
        let db = Database::open(&dir).unwrap();
        let t = db.create_table("t", people_schema()).unwrap();
        {
            let mut tx = db.begin();
            tx.insert(&t, &vec![Value::Int(1), Value::Null, Value::Null])
                .unwrap();
            // dropped here
        }
        assert_eq!(view(&db, "t").count().unwrap(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_after_clean_shutdown() {
        let dir = tmpdir("clean");
        {
            let db = Database::open(&dir).unwrap();
            let t = db.create_table("people", people_schema()).unwrap();
            db.create_index("people", "by_id", &["id"], true).unwrap();
            for i in 0..100i64 {
                t.insert(&vec![Value::Int(i), Value::from("p"), Value::Null])
                    .unwrap();
            }
            db.checkpoint().unwrap();
        }
        let db = Database::open(&dir).unwrap();
        let v = view(&db, "people");
        assert_eq!(v.count().unwrap(), 100);
        assert_eq!(v.index_lookup("by_id", &[Value::Int(42)]).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_replays_committed_only() {
        let dir = tmpdir("recover");
        {
            let db = Database::open(&dir).unwrap();
            let t = db.create_table("people", people_schema()).unwrap();
            db.create_index("people", "by_id", &["id"], true).unwrap();
            for i in 0..50i64 {
                t.insert(&vec![Value::Int(i), Value::from("p"), Value::Null])
                    .unwrap();
            }
            // Simulate a crash: the WAL is synced (commits), data pages are
            // NOT checkpointed, and the process "dies" (drop without
            // checkpoint).
        }
        let db = Database::open(&dir).unwrap();
        let v = view(&db, "people");
        assert_eq!(v.count().unwrap(), 50, "committed rows survive the crash");
        // Indexes were rebuilt.
        assert_eq!(v.index_lookup("by_id", &[Value::Int(25)]).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_ignores_uncommitted() {
        let dir = tmpdir("uncommitted");
        {
            let db = Database::open(&dir).unwrap();
            let t = db.create_table("people", people_schema()).unwrap();
            t.insert(&vec![Value::Int(1), Value::from("committed"), Value::Null])
                .unwrap();
            let mut tx = db.begin();
            tx.insert(&t, &vec![Value::Int(2), Value::from("dirty"), Value::Null])
                .unwrap();
            // Force the WAL to disk so the uncommitted op is present in the
            // log, then leak the txn (no commit record).
            db.inner.wal.lock().sync().unwrap();
            std::mem::forget(tx);
        }
        let db = Database::open(&dir).unwrap();
        let rows = view(&db, "people").scan().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1[1], Value::from("committed"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn readers_only_see_published_snapshots() {
        let dir = tmpdir("published");
        let db = Database::open(&dir).unwrap();
        let t = db.create_table("people", people_schema()).unwrap();
        // version -> rows committed at that version, recorded by the
        // writer right after each commit publishes.
        let mut published = HashMap::from([(db.begin_read().version(), 0usize)]);
        let stop = AtomicBool::new(false);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..3)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        let mut seen = Vec::new();
                        loop {
                            let done = stop.load(Ordering::SeqCst);
                            let view = db.begin_read();
                            let rows = view.table("people").unwrap().count().unwrap();
                            seen.push((view.version(), rows));
                            if done {
                                return seen;
                            }
                        }
                    })
                })
                .collect();
            start.wait();
            for i in 0..150i64 {
                t.insert(&vec![Value::Int(i), Value::from("p"), Value::Null])
                    .unwrap();
                published.insert(db.begin_read().version(), i as usize + 1);
            }
            stop.store(true, Ordering::SeqCst);
            for r in readers {
                let seen = r.join().expect("reader panicked");
                assert_eq!(seen.last().map(|s| s.1), Some(150), "final view is current");
                for pair in seen.windows(2) {
                    assert!(pair[0].0 <= pair[1].0, "version went backwards");
                }
                for (version, rows) in seen {
                    assert_eq!(
                        published.get(&version),
                        Some(&rows),
                        "view at {version} saw {rows} rows"
                    );
                }
            }
        });
        assert_eq!(db.mvcc_stats().live_views, 0, "every view unpinned");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_view_pins_what_its_commit_installed() {
        let dir = tmpdir("pair");
        let db = Database::open(&dir).unwrap();
        let t = db.create_table("people", people_schema()).unwrap();
        // State published beside each commit: the number of rows it holds.
        let published = Mutex::new(0usize);
        let pin = || {
            let (view, rows) = db.begin_read_with(|| *published.lock());
            assert_eq!(view.table("people").unwrap().count().unwrap(), rows);
        };
        pin();
        for i in 0..5i64 {
            let mut tx = db.begin();
            tx.insert(
                &t,
                &vec![Value::Int(i), Value::from("x"), Value::Float(0.0)],
            )
            .unwrap();
            // Not yet published: a view still pairs the old state.
            pin();
            let n = tx.commit_with(|| {
                *published.lock() += 1;
                *published.lock()
            });
            assert_eq!(n.unwrap(), i as usize + 1);
            pin();
        }
        // A transaction that wrote nothing still runs its install.
        assert_eq!(db.begin().commit_with(|| 7).unwrap(), 7);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn explicit_txn_multi_op_commit() {
        let dir = tmpdir("multi");
        let db = Database::open(&dir).unwrap();
        let t = db.create_table("t", people_schema()).unwrap();
        let mut tx = db.begin();
        let a = tx
            .insert(&t, &vec![Value::Int(1), Value::from("a"), Value::Null])
            .unwrap();
        let b = tx
            .insert(&t, &vec![Value::Int(2), Value::from("b"), Value::Null])
            .unwrap();
        tx.update(&t, a, &vec![Value::Int(1), Value::from("a2"), Value::Null])
            .unwrap();
        tx.delete(&t, b).unwrap();
        tx.commit().unwrap();
        let rows = view(&db, "t").scan().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1[1], Value::from("a2"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `(id, name)` rows of `people`; the score column stays `NULL`.
    fn person(id: i64, name: Value) -> Vec<Value> {
        vec![Value::Int(id), name, Value::Null]
    }

    /// The RowIds `index` holds, in key order, as of a fresh view.
    fn indexed(db: &Database, index: &str) -> Vec<RowId> {
        view(db, "people")
            .index_entries(index)
            .unwrap()
            .into_iter()
            .map(|(_, rid)| rid)
            .collect()
    }

    #[test]
    fn a_non_unique_index_leaves_out_all_null_keys() {
        let dir = tmpdir("partial");
        let db = Database::open(&dir).unwrap();
        let t = db.create_table("people", people_schema()).unwrap();
        db.create_index("people", "by_id", &["id"], true).unwrap();
        db.create_index("people", "by_name", &["name"], false)
            .unwrap();
        db.create_index("people", "by_name_score", &["name", "score"], false)
            .unwrap();
        let null = t.insert(&person(1, Value::Null)).unwrap();
        let empty = t.insert(&person(2, Value::from(""))).unwrap();
        let named = t.insert(&person(3, Value::from("ada"))).unwrap();
        let scored = t
            .insert(&vec![Value::Int(4), Value::Null, Value::Float(1.0)])
            .unwrap();
        let no_id = t
            .insert(&vec![Value::Null, Value::Null, Value::Null])
            .unwrap();
        let v = view(&db, "people");
        // Empty text is a key like any other; only NULL is left out.
        assert_eq!(indexed(&db, "by_name"), vec![empty, named]);
        assert_eq!(
            v.index_lookup("by_name", &[Value::from("")]).unwrap(),
            vec![empty]
        );
        assert!(v
            .index_lookup("by_name", &[Value::Null])
            .unwrap()
            .is_empty());
        // A row is left out only when every key column is NULL.
        assert_eq!(indexed(&db, "by_name_score").len(), 3);
        assert!(indexed(&db, "by_name_score").contains(&scored));
        // A unique index holds every row, NULL keys included.
        assert_eq!(indexed(&db, "by_id").len(), 5);
        assert_eq!(
            v.index_lookup("by_id", &[Value::Null]).unwrap(),
            vec![no_id]
        );
        assert!(t
            .insert(&vec![Value::Null, Value::Null, Value::Null])
            .is_err());
        // Deleting a row the index left out is a no-op for that index.
        t.delete(null).unwrap();
        assert_eq!(indexed(&db, "by_name"), vec![empty, named]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_update_through_null_keeps_index_entries_exact() {
        let dir = tmpdir("nullmove");
        let db = Database::open(&dir).unwrap();
        let t = db.create_table("people", people_schema()).unwrap();
        db.create_index("people", "by_name", &["name"], false)
            .unwrap();
        let rid = t.insert(&person(1, Value::Null)).unwrap();
        assert!(indexed(&db, "by_name").is_empty());
        t.update(rid, &person(1, Value::from("x"))).unwrap();
        assert_eq!(indexed(&db, "by_name"), vec![rid]);
        let v = view(&db, "people");
        assert_eq!(
            v.index_lookup("by_name", &[Value::from("x")]).unwrap(),
            vec![rid]
        );
        t.update(rid, &person(1, Value::Null)).unwrap();
        assert!(indexed(&db, "by_name").is_empty());
        // An aborted move out of NULL leaves nothing behind, and an
        // aborted move into NULL restores the entry.
        let mut tx = db.begin();
        tx.update(&t, rid, &person(1, Value::from("y"))).unwrap();
        tx.abort().unwrap();
        assert!(indexed(&db, "by_name").is_empty());
        t.update(rid, &person(1, Value::from("z"))).unwrap();
        let mut tx = db.begin();
        tx.update(&t, rid, &person(1, Value::Null)).unwrap();
        tx.abort().unwrap();
        assert_eq!(indexed(&db, "by_name"), vec![rid]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn backfill_and_rebuild_hold_what_live_maintenance_wrote() {
        let dir = tmpdir("refill");
        let db = Database::open(&dir).unwrap();
        let t = db.create_table("people", people_schema()).unwrap();
        db.create_index("people", "by_name", &["name"], false)
            .unwrap();
        let name = |i: i64| match i % 3 {
            0 => Value::Null,
            1 => Value::from(""),
            _ => Value::from(format!("n{}", i % 5)),
        };
        let mut tx = db.begin();
        let rids: Vec<RowId> = (0..200)
            .map(|i| tx.insert(&t, &person(i, name(i))).unwrap())
            .collect();
        for (i, &rid) in rids.iter().enumerate() {
            let i = i as i64;
            match i % 4 {
                0 => tx.delete(&t, rid).unwrap(),
                1 => tx.update(&t, rid, &person(i, name(i + 1))).unwrap(),
                _ => {}
            }
        }
        tx.commit().unwrap();
        let live = view(&db, "people").index_entries("by_name").unwrap();
        let tagged = view(&db, "people")
            .scan()
            .unwrap()
            .iter()
            .filter(|(_, r)| r[1] != Value::Null)
            .count();
        assert_eq!(live.len(), tagged);
        db.create_index("people", "by_name_again", &["name"], false)
            .unwrap();
        assert_eq!(
            view(&db, "people").index_entries("by_name_again").unwrap(),
            live
        );
        db.rebuild_indexes().unwrap();
        db.checkpoint().unwrap();
        let v = view(&db, "people");
        assert_eq!(v.index_entries("by_name").unwrap(), live);
        assert_eq!(v.index_entries("by_name_again").unwrap(), live);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
