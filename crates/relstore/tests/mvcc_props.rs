//! MVCC property tests: repeatable reads under concurrent commits,
//! agreement with a serial reference execution, view-pin hygiene, and
//! checkpoint eviction of laggard views (the `max_view_lag` knob).

use netmark_relstore::{ColumnType, Database, DbOptions, Schema, StoreError, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("relstore-mvccprop-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn schema() -> Schema {
    Schema::new(&[("K", ColumnType::Int), ("PAYLOAD", ColumnType::Text)])
}

fn row(k: i64) -> Vec<Value> {
    vec![
        Value::Int(k),
        Value::from(format!("payload-{k}-{}", "x".repeat(80))),
    ]
}

const BATCH: usize = 25;
const BATCHES: usize = 40;

/// Commits `BATCHES` batches of `BATCH` rows each; after batch `m` the
/// committed table is exactly rows `0..m*BATCH`.
fn run_writer(db: &Database) {
    let t = db.table("T").unwrap();
    for b in 0..BATCHES {
        let mut tx = db.begin();
        for i in 0..BATCH {
            tx.insert(&t, &row((b * BATCH + i) as i64)).unwrap();
        }
        tx.commit().unwrap();
    }
}

/// Every view observes some committed prefix, and observes it repeatably:
/// two scans through the same view are identical even while commits land.
#[test]
fn read_views_are_repeatable_committed_prefixes() {
    let dir = temp_dir("prefix");
    let db = Arc::new(Database::open(&dir).unwrap());
    db.create_table("T", schema()).unwrap();
    let done = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..3)
        .map(|_| {
            let db = Arc::clone(&db);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut iterations = 0u64;
                let mut max_seen = 0usize;
                while !done.load(Ordering::Acquire) || iterations == 0 {
                    let view = db.begin_read();
                    let t = view.table("T").unwrap();
                    let s1 = t.scan().unwrap();
                    let s2 = t.scan().unwrap();
                    assert_eq!(s1, s2, "repeatable read within one view");
                    assert_eq!(s1.len() % BATCH, 0, "views never observe a torn batch");
                    for (i, (_, r)) in s1.iter().enumerate() {
                        assert_eq!(
                            r[0],
                            Value::Int(i as i64),
                            "observed state is the serial prefix"
                        );
                    }
                    assert!(s1.len() >= max_seen, "later views never travel backwards");
                    max_seen = s1.len();
                    iterations += 1;
                }
                iterations
            })
        })
        .collect();

    run_writer(&db);
    done.store(true, Ordering::Release);
    for r in readers {
        assert!(r.join().unwrap() > 0);
    }
    // Quiesced: a fresh view sees everything.
    let view = db.begin_read();
    assert_eq!(
        view.table("T").unwrap().scan().unwrap().len(),
        BATCH * BATCHES
    );
    drop(view);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The store produced under concurrent snapshot readers is identical —
/// rowids and bytes — to one produced by the same commits run serially.
#[test]
fn concurrent_reads_leave_store_identical_to_serial_reference() {
    let dir_a = temp_dir("ref-a");
    let dir_b = temp_dir("ref-b");
    let db_a = Arc::new(Database::open(&dir_a).unwrap());
    let db_b = Database::open(&dir_b).unwrap();
    db_a.create_table("T", schema()).unwrap();
    db_b.create_table("T", schema()).unwrap();

    // Churn views hard while db_a ingests.
    let done = Arc::new(AtomicBool::new(false));
    let churn: Vec<_> = (0..2)
        .map(|_| {
            let db = Arc::clone(&db_a);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                while !done.load(Ordering::Acquire) {
                    let view = db.begin_read();
                    let t = view.table("T").unwrap();
                    let _ = t.scan().unwrap();
                }
            })
        })
        .collect();
    run_writer(&db_a);
    done.store(true, Ordering::Release);
    for c in churn {
        c.join().unwrap();
    }
    run_writer(&db_b); // serial reference: no concurrent readers at all

    let va = db_a.begin_read();
    let a = va.table("T").unwrap().scan().unwrap();
    let b = db_b.begin_read().table("T").unwrap().scan().unwrap();
    assert_eq!(a, b, "same rowids, same tuples as the serial reference");
    std::fs::remove_dir_all(&dir_a).unwrap();
    std::fs::remove_dir_all(&dir_b).unwrap();
}

/// Views never leak: clones share one registration, the pin lives until
/// the last clone drops, and a write transaction pins no view at all —
/// open, committed, aborted or dropped.
#[test]
fn no_view_leaks_across_txn_and_view_lifecycles() {
    let dir = temp_dir("leak");
    let db = Database::open(&dir).unwrap();
    let t = db.create_table("T", schema()).unwrap();
    assert_eq!(db.mvcc_stats().live_views, 0);

    let view = db.begin_read();
    assert_eq!(db.mvcc_stats().live_views, 1);
    let clone = view.clone();
    assert_eq!(db.mvcc_stats().live_views, 1, "clones share the pin");
    drop(view);
    assert_eq!(db.mvcc_stats().live_views, 1, "pin lives with last clone");
    drop(clone);
    assert_eq!(db.mvcc_stats().live_views, 0);

    // A transaction pins nothing, open or committed.
    let opened = db.mvcc_stats().views_opened;
    assert_eq!(opened, 1);
    let mut tx = db.begin();
    assert_eq!(db.mvcc_stats().live_views, 0, "an open txn pins no view");
    tx.insert(&t, &row(1)).unwrap();
    assert_eq!(db.mvcc_stats().live_views, 0, "a txn's writes pin no view");
    tx.commit().unwrap();
    assert_eq!(db.mvcc_stats().live_views, 0);
    assert_eq!(
        db.mvcc_stats().views_opened,
        opened,
        "begin and commit open no view"
    );

    // Abort and drop-abort leave nothing pinned either.
    let mut tx = db.begin();
    tx.insert(&t, &row(2)).unwrap();
    tx.abort().unwrap();
    assert_eq!(db.mvcc_stats().live_views, 0, "abort leaves no pin");
    {
        let mut tx = db.begin();
        tx.insert(&t, &row(3)).unwrap();
    }
    assert_eq!(db.mvcc_stats().live_views, 0, "drop-abort leaves no pin");

    let s = db.mvcc_stats();
    assert_eq!(s.views_opened, opened);
    assert_eq!(s.views_evicted, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Checkpoints wait up to `max_view_lag` for stale views, then evict the
/// stragglers; current-version views survive checkpoints untouched.
#[test]
fn checkpoint_evicts_views_lagging_past_max_view_lag() {
    let dir = temp_dir("evict");
    let opts = DbOptions {
        max_view_lag: Duration::from_millis(20),
        ..DbOptions::default()
    };
    let db = Database::open_with(&dir, opts).unwrap();
    let t = db.create_table("T", schema()).unwrap();
    for k in 0..50 {
        t.insert(&row(k)).unwrap();
    }
    db.checkpoint().unwrap();

    // Laggard: pinned before the next commit, held across the checkpoint.
    let laggard = db.begin_read();
    let laggard_table = laggard.table("T").unwrap();
    assert_eq!(laggard_table.scan().unwrap().len(), 50);

    let mut tx = db.begin();
    tx.insert(&t, &row(999)).unwrap();
    tx.commit().unwrap();

    // Fresh view at the current version: checkpoints never evict it.
    let current = db.begin_read();

    db.checkpoint().unwrap();
    assert!(
        laggard.is_evicted(),
        "stale view evicted after the lag grace"
    );
    assert!(!current.is_evicted(), "current-version view survives");
    assert!(
        matches!(laggard_table.scan(), Err(StoreError::ViewEvicted)),
        "evicted views fail loudly instead of lying"
    );
    assert_eq!(current.table("T").unwrap().scan().unwrap().len(), 51);
    assert!(db.mvcc_stats().views_evicted >= 1);
    std::fs::remove_dir_all(&dir).unwrap();
}
