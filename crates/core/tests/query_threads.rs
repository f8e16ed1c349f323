//! A query runs on the thread that asked: answering one spawns no thread.
//!
//! The engine reads every `Content=` term of a query in turn on the
//! caller's thread, whatever `QueryEngineOptions::workers` says. This test
//! runs its own binary so that no other test's threads come and go while
//! a sampler lists `/proc/self/task`: any thread id the sampler sees that
//! was not there before the queries (other than its own) was spawned by a
//! query.
#![cfg(target_os = "linux")]

use netmark::{NetMark, NetMarkOptions, QueryEngineOptions, RankMode, XdbQuery};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The ids of this process's live threads.
fn task_ids() -> BTreeSet<u64> {
    std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
        .collect()
}

/// The calling thread's id, from `/proc/thread-self` (`<pid>/task/<tid>`).
fn own_task_id() -> u64 {
    let link = std::fs::read_link("/proc/thread-self").expect("read /proc/thread-self");
    let tid = link.file_name().and_then(|n| n.to_str()).expect("a tid");
    tid.parse().expect("a numeric tid")
}

/// Uncached queries run, cycling through two-term keyword, ranked, phrase
/// and `Context=X|Y&Content=` shapes.
const QUERIES: usize = 400;

#[test]
fn queries_spawn_no_thread() {
    let dir = std::env::temp_dir().join(format!("netmark-threads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = NetMarkOptions {
        query: QueryEngineOptions {
            workers: 2,
            cache_capacity: 0,
            ..QueryEngineOptions::default()
        },
        background_compaction: false,
        ..NetMarkOptions::default()
    };
    let nm = NetMark::open_with(&dir, options).expect("open");
    // Enough postings per term that each term read takes a while.
    for d in 0..20 {
        let text: String = (0..100)
            .map(|i| format!("# Budget\nengine gap {d} {i}\n# Risks\nthe engine gap widens\n"))
            .collect();
        nm.insert_file(&format!("d{d}.txt"), &text).expect("ingest");
    }
    let queries = [
        XdbQuery::content("engine gap").with_limit(10),
        XdbQuery::content("engine gap")
            .with_rank(RankMode::Bm25)
            .with_limit(10),
        XdbQuery::content("engine gap")
            .with_phrase_match()
            .with_limit(10),
        XdbQuery::context_content("Budget|Risks", "engine gap").with_limit(10),
    ];

    let before = task_ids();
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let own = own_task_id();
            let (mut seen, mut samples) = (BTreeSet::new(), 0u64);
            while !stop.load(Ordering::Relaxed) {
                seen.extend(task_ids());
                samples += 1;
                std::thread::sleep(Duration::from_micros(200));
            }
            seen.remove(&own);
            (seen, samples)
        })
    };
    for q in queries.iter().cycle().take(QUERIES) {
        let rs = nm.query(q).expect("query");
        assert!(!rs.hits.is_empty(), "{q}");
    }
    stop.store(true, Ordering::Relaxed);
    let (seen, samples) = sampler.join().expect("sampler");
    assert!(samples > 10, "the sampler ran while the queries did");
    let spawned: Vec<u64> = seen.difference(&before).copied().collect();
    assert!(
        spawned.is_empty(),
        "{QUERIES} queries spawned {} threads, first {:?} ({samples} samples)",
        spawned.len(),
        &spawned[..spawned.len().min(8)]
    );
    drop(nm);
    std::fs::remove_dir_all(&dir).unwrap();
}
