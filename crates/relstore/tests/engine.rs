//! Engine-level integration tests: cross-table transactions, checkpoint
//! policy, crash equivalence, and corruption handling.

use netmark_relstore::{ColumnType, Database, DbOptions, RowId, Schema, StoreError, Value};
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("relstore-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Rows of `name` as of a fresh view of `db`.
fn rows(db: &Database, name: &str) -> Vec<(RowId, Vec<Value>)> {
    db.begin_read().table(name).unwrap().scan().unwrap()
}

fn two_col() -> Schema {
    Schema::new(&[("k", ColumnType::Int), ("v", ColumnType::Text)])
}

#[test]
fn transaction_spans_tables_atomically() {
    let dir = scratch("atomic");
    let db = Database::open(&dir).unwrap();
    let a = db.create_table("a", two_col()).unwrap();
    let b = db.create_table("b", two_col()).unwrap();
    // Committed cross-table writes land together…
    let mut tx = db.begin();
    tx.insert(&a, &vec![Value::Int(1), Value::from("a1")])
        .unwrap();
    tx.insert(&b, &vec![Value::Int(1), Value::from("b1")])
        .unwrap();
    tx.commit().unwrap();
    // …and aborted ones vanish together.
    let mut tx = db.begin();
    tx.insert(&a, &vec![Value::Int(2), Value::from("a2")])
        .unwrap();
    tx.insert(&b, &vec![Value::Int(2), Value::from("b2")])
        .unwrap();
    tx.abort().unwrap();
    assert_eq!(rows(&db, "a").len(), 1);
    assert_eq!(rows(&db, "b").len(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn wal_threshold_triggers_auto_checkpoint() {
    let dir = scratch("autockpt");
    let opts = DbOptions {
        checkpoint_wal_bytes: 4096, // tiny, to force checkpoints
        ..DbOptions::default()
    };
    let db = Database::open_with(&dir, opts).unwrap();
    let t = db.create_table("t", two_col()).unwrap();
    for i in 0..200i64 {
        t.insert(&vec![Value::Int(i), Value::from("x".repeat(50).as_str())])
            .unwrap();
    }
    // The WAL must have been truncated at least once: it cannot hold all
    // 200 inserts' worth of records.
    let wal_len = std::fs::metadata(dir.join("wal.log")).unwrap().len();
    assert!(wal_len < 200 * 60, "wal stayed bounded: {wal_len} bytes");
    // And the data is all there after reopen.
    drop(db);
    let db = Database::open(&dir).unwrap();
    assert_eq!(rows(&db, "t").len(), 200);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crash_equivalence_under_random_ops() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let dir = scratch("equiv");
    let mut model: std::collections::BTreeMap<i64, String> = std::collections::BTreeMap::new();
    {
        let db = Database::open(&dir).unwrap();
        let t = db.create_table("t", two_col()).unwrap();
        db.create_index("t", "by_k", &["k"], true).unwrap();
        let mut rng = SmallRng::seed_from_u64(11);
        let mut rids = std::collections::HashMap::new();
        for step in 0..400 {
            let k = rng.gen_range(0..80i64);
            match rng.gen_range(0..3) {
                0 => {
                    // Insert or replace via delete+insert.
                    if let Some(rid) = rids.remove(&k) {
                        t.delete(rid).unwrap();
                        model.remove(&k);
                    }
                    let v = format!("v{step}");
                    let rid = t
                        .insert(&vec![Value::Int(k), Value::from(v.as_str())])
                        .unwrap();
                    rids.insert(k, rid);
                    model.insert(k, v);
                }
                1 => {
                    if let Some(&rid) = rids.get(&k) {
                        let v = format!("u{step}");
                        t.update(rid, &vec![Value::Int(k), Value::from(v.as_str())])
                            .unwrap();
                        model.insert(k, v);
                    }
                }
                _ => {
                    if let Some(rid) = rids.remove(&k) {
                        t.delete(rid).unwrap();
                        model.remove(&k);
                    }
                }
            }
        }
        // Crash (no checkpoint).
    }
    let db = Database::open(&dir).unwrap();
    let mut got: std::collections::BTreeMap<i64, String> = rows(&db, "t")
        .into_iter()
        .map(|(_, row)| {
            (
                row[0].as_int().unwrap(),
                row[1].as_text().unwrap().to_string(),
            )
        })
        .collect();
    assert_eq!(
        got, model,
        "post-crash state equals pre-crash committed state"
    );
    // The rebuilt unique index agrees with the heap.
    let t = db.begin_read().table("t").unwrap();
    for (k, v) in model.iter().take(20) {
        let rids = t.index_lookup("by_k", &[Value::Int(*k)]).unwrap();
        assert_eq!(rids.len(), 1);
        assert_eq!(t.get(rids[0]).unwrap()[1].as_text().unwrap(), v);
    }
    got.clear();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_catalog_is_reported_not_panicked() {
    let dir = scratch("badcat");
    {
        let db = Database::open(&dir).unwrap();
        db.create_table("t", two_col()).unwrap();
        db.checkpoint().unwrap();
    }
    std::fs::write(dir.join("catalog.nmk"), "table garbage here\n").unwrap();
    match Database::open(&dir) {
        Err(StoreError::Corrupt(msg)) => assert!(msg.contains("catalog")),
        Err(other) => panic!("expected Corrupt error, got {other}"),
        Ok(_) => panic!("expected Corrupt error, got a database"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn nonsynced_commits_may_lose_but_never_corrupt() {
    let dir = scratch("nosync");
    {
        let opts = DbOptions {
            sync_commits: false,
            ..DbOptions::default()
        };
        let db = Database::open_with(&dir, opts).unwrap();
        let t = db.create_table("t", two_col()).unwrap();
        for i in 0..50i64 {
            t.insert(&vec![Value::Int(i), Value::from("x")]).unwrap();
        }
        // Crash without sync: rows may or may not survive (the OS may have
        // flushed), but the database must open cleanly either way.
    }
    let db = Database::open(&dir).unwrap();
    let t = db.table("t").unwrap();
    let n = rows(&db, "t").len();
    assert!(n <= 50);
    // Still writable.
    t.insert(&vec![Value::Int(999), Value::from("post")])
        .unwrap();
    assert_eq!(rows(&db, "t").len(), n + 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_then_crash_loses_nothing_and_replays_nothing() {
    let dir = scratch("ckptcrash");
    {
        let db = Database::open(&dir).unwrap();
        let t = db.create_table("t", two_col()).unwrap();
        for i in 0..30i64 {
            t.insert(&vec![Value::Int(i), Value::from("pre")]).unwrap();
        }
        db.checkpoint().unwrap();
        for i in 30..40i64 {
            t.insert(&vec![Value::Int(i), Value::from("post")]).unwrap();
        }
        // Crash: 0..30 checkpointed, 30..40 only in the WAL.
    }
    let db = Database::open(&dir).unwrap();
    assert_eq!(rows(&db, "t").len(), 40);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn second_begin_would_deadlock_so_txns_are_exclusive() {
    // Single-writer: a second begin() blocks until the first finishes —
    // verified by running them from two threads.
    let dir = scratch("excl");
    let db = Database::open(&dir).unwrap();
    let t = db.create_table("t", two_col()).unwrap();
    let db2 = db.clone();
    let t2 = t.clone();
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(2));
    let b2 = std::sync::Arc::clone(&barrier);
    let handle = std::thread::spawn(move || {
        b2.wait();
        // This blocks until the main thread's txn commits.
        let mut tx = db2.begin();
        tx.insert(&t2, &vec![Value::Int(2), Value::from("second")])
            .unwrap();
        tx.commit().unwrap();
    });
    let mut tx = db.begin();
    tx.insert(&t, &vec![Value::Int(1), Value::from("first")])
        .unwrap();
    barrier.wait();
    std::thread::sleep(std::time::Duration::from_millis(50));
    tx.commit().unwrap();
    handle.join().unwrap();
    assert_eq!(rows(&db, "t").len(), 2);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Crash mid-group-commit: the WAL tail past the last physical fsync is
/// what a crash can lose. Truncating the log to its last-synced length
/// simulates exactly that; everything synced must replay, and losing the
/// deferred window must drop whole transactions, never partial ones.
#[test]
fn group_commit_crash_loses_at_most_the_open_window() {
    let dir = scratch("groupcrash");
    let synced_len;
    {
        let opts = DbOptions {
            sync_commits: true,
            group_commit_window: std::time::Duration::from_secs(3600),
            ..DbOptions::default()
        };
        let db = Database::open_with(&dir, opts).unwrap();
        let t = db.create_table("t", two_col()).unwrap();
        // Batch A: 10 commits inside the window, then an explicit sync —
        // one fsync covers all ten.
        for i in 0..10i64 {
            t.insert(&vec![Value::Int(i), Value::from("synced")])
                .unwrap();
        }
        db.sync_wal().unwrap();
        let stats = db.wal_stats();
        assert_eq!(stats.commits, 10);
        assert!(
            stats.syncs <= 2,
            "10 commits shared at most 2 fsyncs, got {}",
            stats.syncs
        );
        assert!(stats.fsyncs_saved() >= 8);
        synced_len = std::fs::metadata(dir.join("wal.log")).unwrap().len();
        // Batch B: 5 more commits, deferred by the 1h window.
        for i in 10..15i64 {
            t.insert(&vec![Value::Int(i), Value::from("deferred")])
                .unwrap();
        }
        // Crash: no Drop (which would sync), no checkpoint.
        std::mem::forget(db);
        std::mem::forget(t);
    }
    // The unsynced tail never reached disk.
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(dir.join("wal.log"))
        .unwrap();
    f.set_len(synced_len).unwrap();
    drop(f);
    {
        let db = Database::open(&dir).unwrap();
        let rows = rows(&db, "t");
        assert_eq!(rows.len(), 10, "every synced commit survives");
        for (_, row) in &rows {
            assert_eq!(row[1], Value::from("synced"));
        }
    }
    // Replay is idempotent: a second reopen sees the identical state.
    {
        let db = Database::open(&dir).unwrap();
        assert_eq!(rows(&db, "t").len(), 10);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A torn frame inside the deferred window: transactions wholly before the
/// tear survive, the torn one disappears atomically.
#[test]
fn group_commit_torn_tail_drops_whole_transactions() {
    let dir = scratch("grouptorn");
    {
        let opts = DbOptions {
            sync_commits: true,
            group_commit_window: std::time::Duration::from_secs(3600),
            ..DbOptions::default()
        };
        let db = Database::open_with(&dir, opts).unwrap();
        let t = db.create_table("t", two_col()).unwrap();
        for i in 0..8i64 {
            t.insert(&vec![Value::Int(i), Value::from("w")]).unwrap();
        }
        std::mem::forget(db);
        std::mem::forget(t);
    }
    // Chop the log mid-frame (not at a record boundary) to fake a torn
    // write of the deferred tail.
    let len = std::fs::metadata(dir.join("wal.log")).unwrap().len();
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(dir.join("wal.log"))
        .unwrap();
    f.set_len(len - 7).unwrap();
    drop(f);
    let db = Database::open(&dir).unwrap();
    let rows = rows(&db, "t");
    // The last commit straddles the tear; everything else is intact.
    assert_eq!(rows.len(), 7, "torn commit vanished atomically");
    for (i, (_, row)) in rows.iter().enumerate() {
        assert_eq!(row[0], Value::Int(i as i64));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Clean shutdown inside the window loses nothing: Drop flushes the WAL.
#[test]
fn group_commit_clean_shutdown_is_durable() {
    let dir = scratch("groupclean");
    {
        let opts = DbOptions {
            sync_commits: true,
            group_commit_window: std::time::Duration::from_secs(3600),
            ..DbOptions::default()
        };
        let db = Database::open_with(&dir, opts).unwrap();
        let t = db.create_table("t", two_col()).unwrap();
        for i in 0..12i64 {
            t.insert(&vec![Value::Int(i), Value::from("v")]).unwrap();
        }
        // Drop without checkpoint: the deferred commits must still be
        // fsynced on the way out.
    }
    let db = Database::open(&dir).unwrap();
    assert_eq!(rows(&db, "t").len(), 12);
    std::fs::remove_dir_all(&dir).unwrap();
}
