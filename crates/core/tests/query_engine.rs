//! Read-path integration tests: the result cache must be transparent.
//!
//! The QueryEngine caches whole result sets stamped with the store
//! generation and the engine epoch; every ingest bumps both. These tests
//! check the contract from the outside: a cached answer is always the
//! answer a cold execution would give *right now*, no matter how queries
//! and ingest batches interleave — including when they race from multiple
//! threads.

use netmark::{NetMark, NetMarkOptions, QueryEngineOptions, XdbQuery};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

static SCRATCH_SEQ: AtomicUsize = AtomicUsize::new(0);

fn scratch(tag: &str) -> PathBuf {
    let n = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("netmark-qe-it-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Small vocabulary so generated batches keep hitting the same queries —
/// a stale cache entry would be observably wrong, not just unlucky.
const VOCAB: &[&str] = &["alpha", "beta", "gamma", "delta", "epsilon", "zeta"];
const HEADINGS: &[&str] = &["Budget", "Safety", "Schedule"];

/// The fixed query pool every case replays between batches: single-term,
/// multi-term (exercises the parallel fan-out), context, and combined.
fn query_pool() -> Vec<XdbQuery> {
    let mut pool: Vec<XdbQuery> = VOCAB.iter().map(|t| XdbQuery::content(t)).collect();
    pool.push(XdbQuery::content("alpha beta"));
    pool.push(XdbQuery::content("gamma delta epsilon"));
    pool.extend(HEADINGS.iter().map(|h| XdbQuery::context(h)));
    pool.push(XdbQuery::context_content("Budget", "alpha"));
    pool
}

/// One generated document: a heading pick and a bag of vocabulary terms.
fn doc_text(heading: usize, terms: &[usize]) -> String {
    let words: Vec<&str> = terms.iter().map(|&t| VOCAB[t % VOCAB.len()]).collect();
    format!(
        "# {}\n{}\n",
        HEADINGS[heading % HEADINGS.len()],
        words.join(" ")
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    /// Cached results equal fresh results across interleaved ingest
    /// batches: priming the cache before each batch forces the engine to
    /// either invalidate on the generation/epoch bump or serve a stale
    /// (and detectably wrong) result set afterwards.
    #[test]
    fn cached_results_equal_fresh_across_ingest(
        batches in proptest::collection::vec(
            proptest::collection::vec(
                (0usize..HEADINGS.len(), proptest::collection::vec(0usize..VOCAB.len(), 1..5)),
                1..4,
            ),
            1..5,
        ),
    ) {
        let dir = scratch("prop");
        let nm = NetMark::open(&dir).unwrap();
        let pool = query_pool();
        let mut doc_no = 0usize;
        for batch in &batches {
            // Prime the cache with pre-batch answers.
            for q in &pool {
                nm.query(q).unwrap();
            }
            for (heading, terms) in batch {
                nm.insert_file(&format!("d{doc_no}.txt"), &doc_text(*heading, terms))
                    .unwrap();
                doc_no += 1;
            }
            // Every cached answer must now match a cache-bypassing cold
            // execution of the same query.
            for q in &pool {
                let cached = nm.query(q).unwrap();
                let fresh = nm.engine().execute_uncached(q).unwrap();
                prop_assert!(
                    cached == fresh,
                    "stale cache after ingest for {}",
                    q.to_query_string()
                );
                // And twice in a row is stable (second read is the hit path).
                let again = nm.query(q).unwrap();
                prop_assert_eq!(&again, &fresh);
            }
        }
        // The workload re-ran every pool query after every batch; some of
        // those must have been served by the cache (the two reads between
        // mutations), and every batch must have invalidated it.
        let stats = nm.query_stats();
        prop_assert!(stats.cache_hits > 0, "cache never hit");
        prop_assert!(stats.cache_misses as usize >= pool.len(), "cache never missed");
        drop(nm);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Queries hammering the engine from several threads during ingest see
/// internally consistent results: no errors, and — since this workload
/// only adds documents — per-query hit counts that never go backwards.
/// At quiesce every answer is byte-identical to a serial, cache-off
/// engine over a store that replayed the same ingest sequence, and every
/// query has released its MVCC view pin.
#[test]
fn concurrent_queries_during_ingest_stay_consistent() {
    let dir = scratch("conc");
    let nm = Arc::new(
        NetMark::open_with(
            &dir,
            NetMarkOptions {
                query: QueryEngineOptions {
                    workers: 2,
                    ..QueryEngineOptions::default()
                },
                ..NetMarkOptions::default()
            },
        )
        .unwrap(),
    );
    let stop = Arc::new(AtomicBool::new(false));
    let pool = Arc::new(query_pool());

    let readers: Vec<_> = (0..4)
        .map(|r| {
            let nm = Arc::clone(&nm);
            let stop = Arc::clone(&stop);
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                let mut floor = vec![0usize; pool.len()];
                let mut executed = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for (i, q) in pool.iter().enumerate() {
                        let rs = nm.query(q).unwrap_or_else(|e| {
                            panic!("reader {r}: query {} failed: {e}", q.to_query_string())
                        });
                        assert!(
                            rs.hits.len() >= floor[i],
                            "reader {r}: hits went backwards for {} ({} -> {})",
                            q.to_query_string(),
                            floor[i],
                            rs.hits.len()
                        );
                        floor[i] = rs.hits.len();
                        executed += 1;
                    }
                }
                executed
            })
        })
        .collect();

    // 20 ingest batches while the readers run; each insert bumps the
    // store generation and the engine epoch.
    let mut ledger = Vec::new();
    for batch in 0..20usize {
        for d in 0..3usize {
            let terms: Vec<usize> = (0..=(batch + d) % 4)
                .map(|k| (batch + k) % VOCAB.len())
                .collect();
            let (name, text) = (format!("c{batch}-{d}.txt"), doc_text(batch + d, &terms));
            nm.insert_file(&name, &text).unwrap();
            ledger.push((name, text));
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    stop.store(true, Ordering::Relaxed);
    let executed: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(executed > 0, "readers never got a query in");

    // Quiesced: the cache must now agree with cold execution everywhere.
    for q in pool.iter() {
        let cached = nm.query(q).unwrap();
        let fresh = nm.engine().execute_uncached(q).unwrap();
        assert_eq!(cached, fresh, "stale cache after the dust settled");
        assert!(
            !cached.hits.is_empty() || fresh.hits.is_empty(),
            "cached and fresh agree on emptiness"
        );
    }
    let stats = nm.query_stats();
    assert_eq!(stats.queries, stats.cache_hits + stats.cache_misses);
    assert!(stats.queries >= executed, "engine under-counted queries");

    // Serial reference: no fan-out, no cache, no concurrent readers.
    let serial_dir = scratch("conc-serial");
    let serial = NetMark::open_with(
        &serial_dir,
        NetMarkOptions {
            query: QueryEngineOptions {
                workers: 0,
                cache_capacity: 0,
                ..QueryEngineOptions::default()
            },
            ..NetMarkOptions::default()
        },
    )
    .unwrap();
    for (name, text) in &ledger {
        serial.insert_file(name, text).unwrap();
    }
    for q in pool.iter() {
        assert_eq!(
            nm.engine().execute_uncached(q).unwrap().to_xml(),
            serial.engine().execute_uncached(q).unwrap().to_xml(),
            "concurrent and serial answers diverge for {}",
            q.to_query_string()
        );
    }
    assert_eq!(
        nm.store().database().mvcc_stats().live_views,
        0,
        "every query released its view pin"
    );

    drop(serial);
    drop(nm);
    std::fs::remove_dir_all(&serial_dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A query never waits for the writer: while a write transaction holds
/// the database write lock, a query on another thread pins the last
/// committed view and answers.
#[test]
fn query_answers_while_a_write_transaction_is_open() {
    let dir = scratch("txn");
    let nm = Arc::new(NetMark::open(&dir).unwrap());
    nm.insert_file("a.txt", &doc_text(0, &[0, 1])).unwrap();
    let q = XdbQuery::content("alpha");
    let want = nm.engine().execute_uncached(&q).unwrap();
    assert!(!want.hits.is_empty());

    let txn = nm.store().database().begin();
    let (tx, rx) = std::sync::mpsc::channel();
    let reader = {
        let nm = Arc::clone(&nm);
        std::thread::spawn(move || tx.send(nm.engine().execute_uncached(&q).unwrap()).unwrap())
    };
    let got = rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("query blocked behind the open write transaction");
    assert_eq!(got, want);
    drop(txn);
    reader.join().unwrap();

    drop(nm);
    std::fs::remove_dir_all(&dir).unwrap();
}
