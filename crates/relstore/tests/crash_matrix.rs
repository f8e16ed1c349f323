//! Kill-9 crash-recovery matrix.
//!
//! Each scenario re-invokes this test binary as a child (filtered to the
//! same test, switched into child mode by `CRASH_ROLE`), lets the child
//! reach a known phase — signalled through marker files — and then sends
//! it SIGKILL. The parent reopens the store and checks the recovery
//! contract: a transaction is visible after reopen iff its commit record
//! reached disk, and checkpoints can die at any instant without losing
//! committed state (redo-only WAL, no-steal/no-force pool).

use netmark_relstore::{ColumnType, Database, DbOptions, Schema, Value};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const BATCH: usize = 10;

fn schema() -> Schema {
    Schema::new(&[("K", ColumnType::Int), ("PAYLOAD", ColumnType::Text)])
}

fn row(k: i64) -> Vec<Value> {
    vec![
        Value::Int(k),
        Value::from(format!("payload-{k}-{}", "x".repeat(64))),
    ]
}

fn sync_opts() -> DbOptions {
    DbOptions {
        sync_commits: true,
        group_commit_window: Duration::ZERO,
        ..DbOptions::default()
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("relstore-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Atomically publish a marker the parent polls for.
fn mark(dir: &Path, name: &str, content: &str) {
    let tmp = dir.join(format!("{name}.tmp"));
    std::fs::write(&tmp, content).unwrap();
    std::fs::rename(&tmp, dir.join(name)).unwrap();
}

/// Spawn this test binary as a child locked to `test_name`, with
/// `CRASH_ROLE` set so the re-entered test takes the child branch.
fn spawn_child(test_name: &str, dir: &Path) -> std::process::Child {
    std::process::Command::new(std::env::current_exe().unwrap())
        .arg(test_name)
        .arg("--exact")
        .arg("--nocapture")
        .env("CRASH_ROLE", "child")
        .env("CRASH_DIR", dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn crash child")
}

fn wait_for(path: &Path, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    while !path.exists() {
        assert!(Instant::now() < deadline, "marker {path:?} never appeared");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Child half: park until the parent's SIGKILL lands (bounded, so an
/// orphaned child cannot outlive a failed parent by much).
fn await_kill() -> ! {
    std::thread::sleep(Duration::from_secs(30));
    std::process::exit(1);
}

fn child_dir() -> Option<PathBuf> {
    match std::env::var("CRASH_ROLE") {
        Ok(role) if role == "child" => Some(PathBuf::from(std::env::var("CRASH_DIR").unwrap())),
        _ => None,
    }
}

/// Keys present after reopen must be the serial prefix `0..n`.
fn assert_prefix(rows: &[(netmark_relstore::RowId, Vec<Value>)]) {
    for (i, (_, r)) in rows.iter().enumerate() {
        assert_eq!(r[0], Value::Int(i as i64), "recovered rows form a prefix");
    }
}

/// Killed with a transaction open (inserts done, commit never called):
/// reopen shows only the pre-existing committed rows.
#[test]
fn kill9_pre_commit_loses_only_the_open_txn() {
    if let Some(dir) = child_dir() {
        let db = Database::open_with(&dir, sync_opts()).unwrap();
        let t = db.table("T").unwrap();
        let mut tx = db.begin();
        for k in 100..200 {
            tx.insert(&t, &row(k)).unwrap();
        }
        mark(&dir, "ready", "open-txn");
        await_kill();
    }

    let dir = scratch("precommit");
    {
        let db = Database::open_with(&dir, sync_opts()).unwrap();
        let t = db.create_table("T", schema()).unwrap();
        let mut tx = db.begin();
        for k in 0..100 {
            tx.insert(&t, &row(k)).unwrap();
        }
        tx.commit().unwrap();
    }
    let mut child = spawn_child("kill9_pre_commit_loses_only_the_open_txn", &dir);
    wait_for(&dir.join("ready"), Duration::from_secs(10));
    child.kill().unwrap();
    child.wait().unwrap();

    let db = Database::open_with(&dir, sync_opts()).unwrap();
    let rows = db.begin_read().table("T").unwrap().scan().unwrap();
    assert_eq!(rows.len(), 100, "open transaction vanished on recovery");
    assert_prefix(&rows);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Killed right after `commit()` returned under `sync_commits`: reopen
/// shows every committed row even though no checkpoint ever ran.
#[test]
fn kill9_post_commit_preserves_synced_commits() {
    if let Some(dir) = child_dir() {
        let db = Database::open_with(&dir, sync_opts()).unwrap();
        let t = db.create_table("T", schema()).unwrap();
        let mut tx = db.begin();
        for k in 0..100 {
            tx.insert(&t, &row(k)).unwrap();
        }
        tx.commit().unwrap();
        mark(&dir, "committed", "100");
        await_kill();
    }

    let dir = scratch("postcommit");
    std::fs::create_dir_all(&dir).unwrap();
    let mut child = spawn_child("kill9_post_commit_preserves_synced_commits", &dir);
    wait_for(&dir.join("committed"), Duration::from_secs(10));
    child.kill().unwrap();
    child.wait().unwrap();

    let db = Database::open_with(&dir, sync_opts()).unwrap();
    let rows = db.begin_read().table("T").unwrap().scan().unwrap();
    assert_eq!(rows.len(), 100, "synced commit survives kill -9");
    assert_prefix(&rows);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Killed at a random instant inside a commit/checkpoint storm: reopen
/// shows a whole number of batches, at least everything acknowledged
/// before the kill, with no torn or reordered rows.
#[test]
fn kill9_mid_checkpoint_keeps_committed_state() {
    if let Some(dir) = child_dir() {
        let db = Database::open_with(&dir, sync_opts()).unwrap();
        let t = db.create_table("T", schema()).unwrap();
        for b in 0..1000usize {
            let mut tx = db.begin();
            for i in 0..BATCH {
                tx.insert(&t, &row((b * BATCH + i) as i64)).unwrap();
            }
            tx.commit().unwrap();
            mark(&dir, "acked", &b.to_string());
            db.checkpoint().unwrap();
        }
        await_kill();
    }

    let dir = scratch("midckpt");
    std::fs::create_dir_all(&dir).unwrap();
    let mut child = spawn_child("kill9_mid_checkpoint_keeps_committed_state", &dir);

    // Let a few commit→checkpoint cycles land, then kill at an arbitrary
    // point in the storm — with good odds, mid-checkpoint.
    let acked = dir.join("acked");
    wait_for(&acked, Duration::from_secs(10));
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(s) = std::fs::read_to_string(&acked) {
            if s.trim().parse::<usize>().is_ok_and(|b| b >= 5) {
                break;
            }
        }
        assert!(Instant::now() < deadline, "child never reached batch 5");
        std::thread::sleep(Duration::from_millis(1));
    }
    child.kill().unwrap();
    child.wait().unwrap();
    let acked_batches: usize = std::fs::read_to_string(&acked)
        .unwrap()
        .trim()
        .parse()
        .unwrap();

    let db = Database::open_with(&dir, sync_opts()).unwrap();
    let rows = db.begin_read().table("T").unwrap().scan().unwrap();
    assert_eq!(rows.len() % BATCH, 0, "no torn batch after recovery");
    assert!(
        rows.len() >= (acked_batches + 1) * BATCH,
        "every acknowledged batch survived: acked {} batches, found {} rows",
        acked_batches + 1,
        rows.len()
    );
    assert_prefix(&rows);
    std::fs::remove_dir_all(&dir).unwrap();
}
