//! Redo-only write-ahead log.
//!
//! The engine runs a **no-steal / no-force** policy: uncommitted changes
//! never reach data files (see [`crate::buffer`]), so the log only needs
//! *redo* information. Commit appends a `Commit` record and fsyncs the log;
//! data pages are written back lazily at checkpoints. Recovery replays the
//! operations of committed transactions, using per-page LSNs for
//! idempotence, then checkpoints and truncates the log.
//!
//! Records reference tables by their stable catalog [`ObjectId`] — not by
//! [`crate::disk::FileId`], which depends on open order.
//!
//! On-disk record framing: `len u32 | checksum u32 | body`, where body is
//! `lsn u64 | kind u8 | payload`. A truncated or checksum-failing tail
//! record marks the end of the usable log (torn write at crash).

use crate::error::{Result, StoreError};
use crate::tuple::{read_varint, write_varint};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Stable identifier of a catalogued table (survives restarts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u32);

/// Transaction identifier.
pub type TxId = u64;

/// Log sequence number. Strictly increasing across the database lifetime.
pub type Lsn = u64;

/// One logical log record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Transaction start.
    Begin {
        /// Starting transaction.
        tx: TxId,
    },
    /// Transaction commit (durable once this record is synced).
    Commit {
        /// Committing transaction.
        tx: TxId,
    },
    /// Transaction abort (informational; no-steal means nothing to undo on
    /// disk).
    Abort {
        /// Aborting transaction.
        tx: TxId,
    },
    /// A cell was inserted at an exact `(page, slot)` of a heap table.
    Insert {
        /// Owning transaction.
        tx: TxId,
        /// Target table.
        obj: ObjectId,
        /// Heap page number.
        page: u32,
        /// Slot within the page.
        slot: u16,
        /// Raw cell bytes (including the heap record-kind prefix).
        data: Vec<u8>,
    },
    /// A cell was deleted.
    Delete {
        /// Owning transaction.
        tx: TxId,
        /// Target table.
        obj: ObjectId,
        /// Heap page number.
        page: u32,
        /// Slot within the page.
        slot: u16,
        /// Previous cell bytes (kept for in-memory abort; unused by redo).
        old: Vec<u8>,
    },
    /// A cell was rewritten in place.
    Update {
        /// Owning transaction.
        tx: TxId,
        /// Target table.
        obj: ObjectId,
        /// Heap page number.
        page: u32,
        /// Slot within the page.
        slot: u16,
        /// Previous cell bytes.
        old: Vec<u8>,
        /// New cell bytes.
        new: Vec<u8>,
    },
    /// All dirty pages were flushed; records before this point are obsolete.
    Checkpoint,
}

impl WalRecord {
    /// The owning transaction, if any.
    pub fn tx(&self) -> Option<TxId> {
        match self {
            WalRecord::Begin { tx }
            | WalRecord::Commit { tx }
            | WalRecord::Abort { tx }
            | WalRecord::Insert { tx, .. }
            | WalRecord::Delete { tx, .. }
            | WalRecord::Update { tx, .. } => Some(*tx),
            WalRecord::Checkpoint => None,
        }
    }
}

fn encode_body(lsn: Lsn, rec: &WalRecord, out: &mut Vec<u8>) {
    out.extend_from_slice(&lsn.to_le_bytes());
    match rec {
        WalRecord::Begin { tx } => {
            out.push(1);
            out.extend_from_slice(&tx.to_le_bytes());
        }
        WalRecord::Commit { tx } => {
            out.push(2);
            out.extend_from_slice(&tx.to_le_bytes());
        }
        WalRecord::Abort { tx } => {
            out.push(3);
            out.extend_from_slice(&tx.to_le_bytes());
        }
        WalRecord::Insert {
            tx,
            obj,
            page,
            slot,
            data,
        } => {
            out.push(4);
            out.extend_from_slice(&tx.to_le_bytes());
            out.extend_from_slice(&obj.0.to_le_bytes());
            out.extend_from_slice(&page.to_le_bytes());
            out.extend_from_slice(&slot.to_le_bytes());
            write_varint(out, data.len() as u64);
            out.extend_from_slice(data);
        }
        WalRecord::Delete {
            tx,
            obj,
            page,
            slot,
            old,
        } => {
            out.push(5);
            out.extend_from_slice(&tx.to_le_bytes());
            out.extend_from_slice(&obj.0.to_le_bytes());
            out.extend_from_slice(&page.to_le_bytes());
            out.extend_from_slice(&slot.to_le_bytes());
            write_varint(out, old.len() as u64);
            out.extend_from_slice(old);
        }
        WalRecord::Update {
            tx,
            obj,
            page,
            slot,
            old,
            new,
        } => {
            out.push(6);
            out.extend_from_slice(&tx.to_le_bytes());
            out.extend_from_slice(&obj.0.to_le_bytes());
            out.extend_from_slice(&page.to_le_bytes());
            out.extend_from_slice(&slot.to_le_bytes());
            write_varint(out, old.len() as u64);
            out.extend_from_slice(old);
            write_varint(out, new.len() as u64);
            out.extend_from_slice(new);
        }
        WalRecord::Checkpoint => out.push(7),
    }
}

fn take<const N: usize>(buf: &[u8], pos: &mut usize) -> Result<[u8; N]> {
    let end = *pos + N;
    let arr: [u8; N] = buf
        .get(*pos..end)
        .ok_or_else(|| StoreError::Corrupt("wal record truncated".into()))?
        .try_into()
        .unwrap();
    *pos = end;
    Ok(arr)
}

fn take_bytes(buf: &[u8], pos: &mut usize) -> Result<Vec<u8>> {
    let len = read_varint(buf, pos)? as usize;
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| StoreError::Corrupt("wal payload truncated".into()))?;
    let v = buf[*pos..end].to_vec();
    *pos = end;
    Ok(v)
}

fn decode_body(body: &[u8]) -> Result<(Lsn, WalRecord)> {
    let mut pos = 0usize;
    let lsn = u64::from_le_bytes(take::<8>(body, &mut pos)?);
    let kind = take::<1>(body, &mut pos)?[0];
    let rec = match kind {
        1 => WalRecord::Begin {
            tx: u64::from_le_bytes(take::<8>(body, &mut pos)?),
        },
        2 => WalRecord::Commit {
            tx: u64::from_le_bytes(take::<8>(body, &mut pos)?),
        },
        3 => WalRecord::Abort {
            tx: u64::from_le_bytes(take::<8>(body, &mut pos)?),
        },
        4..=6 => {
            let tx = u64::from_le_bytes(take::<8>(body, &mut pos)?);
            let obj = ObjectId(u32::from_le_bytes(take::<4>(body, &mut pos)?));
            let page = u32::from_le_bytes(take::<4>(body, &mut pos)?);
            let slot = u16::from_le_bytes(take::<2>(body, &mut pos)?);
            match kind {
                4 => WalRecord::Insert {
                    tx,
                    obj,
                    page,
                    slot,
                    data: take_bytes(body, &mut pos)?,
                },
                5 => WalRecord::Delete {
                    tx,
                    obj,
                    page,
                    slot,
                    old: take_bytes(body, &mut pos)?,
                },
                _ => WalRecord::Update {
                    tx,
                    obj,
                    page,
                    slot,
                    old: take_bytes(body, &mut pos)?,
                    new: take_bytes(body, &mut pos)?,
                },
            }
        }
        7 => WalRecord::Checkpoint,
        k => return Err(StoreError::Corrupt(format!("unknown wal kind {k}"))),
    };
    Ok((lsn, rec))
}

/// FNV-1a, adequate for torn-write detection.
fn checksum(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x01000193);
    }
    h
}

netmark_model::stats! {
    /// Commit/fsync counters for group-commit instrumentation.
    pub struct WalStats => "wal" {
        /// Commit records appended.
        commits: u64 = sum("commits"),
        /// Physical fsyncs issued.
        syncs: u64 = sum("syncs"),
    }
}

impl WalStats {
    /// Fsyncs avoided by group commit: with one fsync per commit this is
    /// zero; every commit that shared a sync with another adds one.
    pub fn fsyncs_saved(&self) -> u64 {
        self.commits.saturating_sub(self.syncs)
    }
}

/// The write-ahead log file.
///
/// Appends are buffered ([`BufWriter`]) — one `write` syscall per sync
/// instead of one per record. Anything buffered is flushed before every
/// fsync, so durability semantics are unchanged; a crash simply loses the
/// unflushed (and therefore unsynced) tail, which the framing already
/// tolerates.
pub struct Wal {
    path: PathBuf,
    file: BufWriter<File>,
    /// Bytes in the file plus the writer's buffer (avoids a metadata
    /// syscall per [`Wal::size`] call — commit checks it every time).
    len: u64,
    next_lsn: Lsn,
    /// Bytes appended since the last sync (for the group-commit stat).
    pending: usize,
    /// Commit records appended since the last sync: their durability is
    /// deferred until the group-commit window closes.
    unsynced_commits: u64,
    last_sync: Instant,
    stats: WalStats,
    /// Reusable encode buffer (no per-record allocation).
    scratch: Vec<u8>,
}

/// Write-side buffer size: large enough that a multi-thousand-op batch
/// transaction reaches the OS in a handful of `write` syscalls.
const WAL_BUF: usize = 256 << 10;

impl Wal {
    /// Opens (creating if needed) the log at `path` and replays its framing,
    /// returning the decoded records that survive checksum validation.
    /// `min_lsn` lower-bounds the next LSN to assign (pass the catalog's
    /// `last_lsn` so LSNs keep increasing after a checkpoint truncation).
    pub fn open(path: &Path, min_lsn: Lsn) -> Result<(Wal, Vec<(Lsn, WalRecord)>)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut raw = Vec::new();
        file.read_to_end(&mut raw)?;
        let mut records = Vec::new();
        let mut pos = 0usize;
        let mut valid_end = 0usize;
        let mut max_lsn = 0u64;
        while pos + 8 <= raw.len() {
            let len = u32::from_le_bytes(raw[pos..pos + 4].try_into().unwrap()) as usize;
            let ck = u32::from_le_bytes(raw[pos + 4..pos + 8].try_into().unwrap());
            let body_start = pos + 8;
            let body_end = match body_start.checked_add(len) {
                Some(e) if e <= raw.len() => e,
                _ => break,
            };
            let body = &raw[body_start..body_end];
            if checksum(body) != ck {
                break;
            }
            match decode_body(body) {
                Ok((lsn, rec)) => {
                    max_lsn = max_lsn.max(lsn);
                    records.push((lsn, rec));
                }
                Err(_) => break,
            }
            pos = body_end;
            valid_end = body_end;
        }
        // Drop any torn tail so future appends start at a clean boundary.
        if valid_end < raw.len() {
            file.set_len(valid_end as u64)?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok((
            Wal {
                path: path.to_path_buf(),
                file: BufWriter::with_capacity(WAL_BUF, file),
                len: valid_end as u64,
                next_lsn: max_lsn.max(min_lsn) + 1,
                pending: 0,
                unsynced_commits: 0,
                last_sync: Instant::now(),
                stats: WalStats::default(),
                scratch: Vec::with_capacity(256),
            },
            records,
        ))
    }

    /// Appends a record, returning its LSN. Not yet durable — call
    /// [`Wal::sync`].
    pub fn append(&mut self, rec: &WalRecord) -> Result<Lsn> {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        let mut body = std::mem::take(&mut self.scratch);
        body.clear();
        encode_body(lsn, rec, &mut body);
        let mut header = [0u8; 8];
        header[..4].copy_from_slice(&(body.len() as u32).to_le_bytes());
        header[4..].copy_from_slice(&checksum(&body).to_le_bytes());
        self.file.write_all(&header)?;
        self.file.write_all(&body)?;
        let frame_len = body.len() + 8;
        self.scratch = body;
        self.len += frame_len as u64;
        self.pending += frame_len;
        if matches!(rec, WalRecord::Commit { .. }) {
            self.stats.commits += 1;
            self.unsynced_commits += 1;
            // Hand the whole transaction to the OS in one write syscall
            // (instead of one per record). Durability still requires
            // [`Wal::sync`]; a crash before it loses the tail atomically.
            self.file.flush()?;
        }
        Ok(lsn)
    }

    /// Durably flushes all appended records. No-op (and not counted in
    /// [`WalStats`]) when nothing was appended since the last sync.
    pub fn sync(&mut self) -> Result<()> {
        if self.pending == 0 && self.unsynced_commits == 0 {
            self.last_sync = Instant::now();
            return Ok(());
        }
        self.file.flush()?;
        self.file.get_ref().sync_data()?;
        self.pending = 0;
        self.unsynced_commits = 0;
        self.last_sync = Instant::now();
        self.stats.syncs += 1;
        Ok(())
    }

    /// Group commit: syncs only if at least `window` has elapsed since the
    /// last sync (a zero window always syncs). Commits appended in between
    /// stay buffered and become durable with the next sync — at the window
    /// boundary, a checkpoint, or shutdown — so at most one window of
    /// committed work is exposed to a crash. Returns whether a physical
    /// sync happened.
    pub fn sync_within(&mut self, window: Duration) -> Result<bool> {
        if window.is_zero() || self.last_sync.elapsed() >= window {
            self.sync()?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Commit records whose durability is still deferred.
    pub fn unsynced_commits(&self) -> u64 {
        self.unsynced_commits
    }

    /// Commit/fsync counters since this handle was opened.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Truncates the log to empty (after a checkpoint has flushed all data
    /// pages). Returns the highest LSN ever assigned, which the caller must
    /// persist in the catalog.
    pub fn reset(&mut self) -> Result<Lsn> {
        // Discard anything still buffered — the checkpoint made it obsolete.
        self.file = BufWriter::with_capacity(WAL_BUF, self.file.get_ref().try_clone()?);
        self.file.get_ref().set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.get_ref().sync_data()?;
        self.len = 0;
        self.pending = 0;
        self.unsynced_commits = 0;
        self.last_sync = Instant::now();
        self.stats.syncs += 1;
        Ok(self.next_lsn - 1)
    }

    /// Current log size in bytes (including not-yet-flushed appends).
    pub fn size(&self) -> Result<u64> {
        Ok(self.len)
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("netmark-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d.join("wal.log")
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Begin { tx: 1 },
            WalRecord::Insert {
                tx: 1,
                obj: ObjectId(3),
                page: 0,
                slot: 2,
                data: vec![1, 2, 3],
            },
            WalRecord::Update {
                tx: 1,
                obj: ObjectId(3),
                page: 0,
                slot: 2,
                old: vec![1, 2, 3],
                new: vec![9, 9],
            },
            WalRecord::Delete {
                tx: 1,
                obj: ObjectId(3),
                page: 0,
                slot: 2,
                old: vec![9, 9],
            },
            WalRecord::Commit { tx: 1 },
            WalRecord::Checkpoint,
        ]
    }

    #[test]
    fn append_reopen_round_trip() {
        let path = tmp("rt");
        {
            let (mut wal, recs) = Wal::open(&path, 0).unwrap();
            assert!(recs.is_empty());
            for r in sample_records() {
                wal.append(&r).unwrap();
            }
            wal.sync().unwrap();
        }
        let (wal, recs) = Wal::open(&path, 0).unwrap();
        let got: Vec<WalRecord> = recs.iter().map(|(_, r)| r.clone()).collect();
        assert_eq!(got, sample_records());
        // LSNs strictly increase and next_lsn follows the max.
        for w in recs.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        assert_eq!(wal.next_lsn, recs.last().unwrap().0 + 1);
    }

    #[test]
    fn torn_tail_is_dropped() {
        let path = tmp("torn");
        {
            let (mut wal, _) = Wal::open(&path, 0).unwrap();
            wal.append(&WalRecord::Begin { tx: 7 }).unwrap();
            wal.append(&WalRecord::Commit { tx: 7 }).unwrap();
            wal.sync().unwrap();
        }
        // Simulate a torn write: append garbage.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[200, 0, 0, 0, 1, 2, 3, 4, 5]).unwrap();
        }
        let (mut wal, recs) = Wal::open(&path, 0).unwrap();
        assert_eq!(recs.len(), 2);
        // The torn bytes were truncated; a fresh append reads back fine.
        wal.append(&WalRecord::Checkpoint).unwrap();
        wal.sync().unwrap();
        let (_, recs) = Wal::open(&path, 0).unwrap();
        assert_eq!(recs.len(), 3);
    }

    #[test]
    fn corrupted_record_stops_replay() {
        let path = tmp("corrupt");
        {
            let (mut wal, _) = Wal::open(&path, 0).unwrap();
            for r in sample_records() {
                wal.append(&r).unwrap();
            }
            wal.sync().unwrap();
        }
        // Flip a byte in the middle of the file.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (_, recs) = Wal::open(&path, 0).unwrap();
        assert!(recs.len() < sample_records().len());
    }

    #[test]
    fn group_commit_stats_and_windowing() {
        let path = tmp("group");
        let (mut wal, _) = Wal::open(&path, 0).unwrap();
        // Zero window: every commit syncs.
        for tx in 0..3u64 {
            wal.append(&WalRecord::Commit { tx }).unwrap();
            assert!(wal.sync_within(Duration::ZERO).unwrap());
        }
        assert_eq!(
            wal.stats(),
            WalStats {
                commits: 3,
                syncs: 3
            }
        );
        assert_eq!(wal.stats().fsyncs_saved(), 0);
        // Wide window: commits right after a sync stay buffered.
        wal.sync().unwrap(); // pending empty: not counted, resets the clock
        for tx in 3..8u64 {
            wal.append(&WalRecord::Commit { tx }).unwrap();
            assert!(!wal.sync_within(Duration::from_secs(3600)).unwrap());
        }
        assert_eq!(wal.unsynced_commits(), 5);
        wal.sync().unwrap();
        assert_eq!(wal.unsynced_commits(), 0);
        assert_eq!(
            wal.stats(),
            WalStats {
                commits: 8,
                syncs: 4
            }
        );
        assert_eq!(wal.stats().fsyncs_saved(), 4);
        // Deferred commits are on disk after the shared sync.
        drop(wal);
        let (_, recs) = Wal::open(&path, 0).unwrap();
        assert_eq!(recs.len(), 8);
    }

    #[test]
    fn sync_without_appends_is_free() {
        let path = tmp("freesync");
        let (mut wal, _) = Wal::open(&path, 0).unwrap();
        wal.sync().unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.stats().syncs, 0);
        wal.append(&WalRecord::Begin { tx: 1 }).unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.stats().syncs, 1);
    }

    #[test]
    fn reset_continues_lsn_sequence() {
        let path = tmp("reset");
        let (mut wal, _) = Wal::open(&path, 0).unwrap();
        let l1 = wal.append(&WalRecord::Begin { tx: 1 }).unwrap();
        let last = wal.reset().unwrap();
        assert_eq!(last, l1);
        let l2 = wal.append(&WalRecord::Begin { tx: 2 }).unwrap();
        assert!(l2 > l1);
        // Reopening with min_lsn from the catalog keeps monotonicity even if
        // the log is empty.
        drop(wal);
        let (wal2, _) = Wal::open(&path, last).unwrap();
        assert!(wal2.next_lsn > last);
    }
}
