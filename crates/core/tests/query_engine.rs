//! Read-path integration tests: one committed state per answer, and a
//! transparent result cache.
//!
//! A query pins one view, which carries the store state, the text-index
//! snapshot published with it and their generation; the QueryEngine
//! caches whole result sets stamped with that generation, which every
//! ingest batch and removal bumps. These tests check the contract from
//! the outside: every answer is the answer a serial store gives at some
//! generation the query overlapped, a cached answer is always the answer
//! a cold execution would give *right now*, and a failed batch or a
//! corrupt posting never turns into a quiet wrong answer.

use netmark::{NetMark, NetMarkOptions, NetmarkError, QueryEngineOptions, RankMode, XdbQuery};
use netmark_textindex::{CompactionPolicy, Placement};
use proptest::prelude::*;
use std::collections::HashMap;
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
/// multi-term (one list per term, intersected), context, combined, and a
/// ranked one (its scores read the snapshot's corpus statistics).
fn query_pool() -> Vec<XdbQuery> {
    let mut pool: Vec<XdbQuery> = VOCAB.iter().map(|t| XdbQuery::content(t)).collect();
    pool.push(XdbQuery::content("alpha beta"));
    pool.push(XdbQuery::content("gamma delta epsilon"));
    pool.extend(HEADINGS.iter().map(|h| XdbQuery::context(h)));
    pool.push(XdbQuery::context_content("Budget", "alpha"));
    pool.push(XdbQuery::content("beta gamma").with_rank(RankMode::Bm25));
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

/// One step of the concurrency test's writer.
enum Step {
    Insert(String, String),
    Remove(String),
    Compact,
}

/// The writer's ledger: 20 rounds of three inserts, a removal of an
/// earlier document every other round, and a compaction every third.
fn ledger() -> Vec<Step> {
    let mut steps = Vec::new();
    for round in 0..20usize {
        for d in 0..3usize {
            let terms: Vec<usize> = (0..=(round + d) % 4)
                .map(|k| (round + k) % VOCAB.len())
                .collect();
            let name = format!("c{round}-{d}.txt");
            steps.push(Step::Insert(name, doc_text(round + d, &terms)));
        }
        if round % 2 == 1 {
            steps.push(Step::Remove(format!("c{}-{}.txt", round - 1, round % 3)));
        }
        if round % 3 == 2 {
            steps.push(Step::Compact);
        }
    }
    steps
}

/// Applies one ledger step to `nm`.
fn apply(nm: &NetMark, step: &Step) {
    match step {
        Step::Insert(name, text) => {
            nm.insert_file(name, text).unwrap();
        }
        Step::Remove(name) => {
            let info = nm.document_by_name(name).unwrap().expect("removed once");
            nm.remove_document(info.doc_id).unwrap();
        }
        Step::Compact => {
            nm.text_index().compact();
        }
    }
}

/// The published generation, read through a pinned view.
fn published_generation(nm: &NetMark) -> i64 {
    nm.store().begin_read().unwrap().generation()
}

/// Queries hammering the engine from several threads while a writer
/// inserts, removes and compacts each see one committed state: every
/// answer equals, byte for byte, a serial store's answer at some
/// generation between the views pinned just before and just after the
/// query. The serial store (no fan-out, no cache, no compaction) replays
/// the same ledger first and records every pool answer at every
/// generation. At quiesce every cached answer equals a cold one, and
/// every query has released its MVCC view pin.
#[test]
fn concurrent_queries_during_ingest_stay_consistent() {
    let pool = Arc::new(query_pool());
    let steps = ledger();

    // Serial reference: pool answers by generation.
    let serial_dir = scratch("conc-serial");
    let serial = NetMark::open_with(
        &serial_dir,
        NetMarkOptions {
            query: QueryEngineOptions {
                cache_capacity: 0,
                ..QueryEngineOptions::default()
            },
            background_compaction: false,
            ..NetMarkOptions::default()
        },
    )
    .unwrap();
    let answers = |nm: &NetMark| -> Vec<String> {
        let run = |q| nm.engine().execute_uncached(q).unwrap().to_xml();
        pool.iter().map(run).collect()
    };
    let mut reference: HashMap<i64, Vec<String>> = HashMap::new();
    reference.insert(serial.store().generation(), answers(&serial));
    for step in &steps {
        if !matches!(step, Step::Compact) {
            apply(&serial, step);
            reference.insert(serial.store().generation(), answers(&serial));
        }
    }
    let reference = Arc::new(reference);

    let dir = scratch("conc");
    let nm = Arc::new(
        NetMark::open_with(
            &dir,
            NetMarkOptions {
                // Small runs merge often, in the background and in the
                // writer's compactions.
                index_compaction: CompactionPolicy {
                    small_postings: 1_000_000,
                    max_segments: 4,
                    tombstone_percent: 10,
                },
                ..NetMarkOptions::default()
            },
        )
        .unwrap(),
    );
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|r| {
            let (nm, stop) = (Arc::clone(&nm), Arc::clone(&stop));
            let (pool, reference) = (Arc::clone(&pool), Arc::clone(&reference));
            std::thread::spawn(move || {
                let mut executed = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for (i, q) in pool.iter().enumerate() {
                        let before = published_generation(&nm);
                        let rs = nm.query(q).unwrap_or_else(|e| {
                            panic!("reader {r}: query {} failed: {e}", q.to_query_string())
                        });
                        let after = published_generation(&nm);
                        let got = rs.to_xml();
                        assert!(
                            (before..=after).any(|g| reference[&g][i] == got),
                            "reader {r}: {} answered no state between generations {before} \
                             and {after}:\n{got}",
                            q.to_query_string()
                        );
                        executed += 1;
                    }
                }
                executed
            })
        })
        .collect();

    for step in &steps {
        apply(&nm, step);
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    stop.store(true, Ordering::Relaxed);
    let executed: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(executed > 0, "readers never got a query in");

    // Quiesced: cached answers agree with cold ones and with the serial
    // store's final state.
    let last = nm.store().generation();
    assert_eq!(last, serial.store().generation());
    for (i, q) in pool.iter().enumerate() {
        let cached = nm.query(q).unwrap();
        let fresh = nm.engine().execute_uncached(q).unwrap();
        assert_eq!(cached, fresh, "stale cache after the dust settled");
        assert_eq!(
            fresh.to_xml(),
            reference[&last][i],
            "{}",
            q.to_query_string()
        );
    }
    let stats = nm.query_stats();
    assert_eq!(stats.queries, stats.cache_hits + stats.cache_misses);
    assert!(stats.queries >= executed, "engine under-counted queries");
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

/// A file name is a key, and the replace commits with the new version:
/// a reader running an uncached `doc=` query while a writer re-ingests
/// that name never sees zero copies or two.
#[test]
fn a_reingest_is_one_publication() {
    let dir = scratch("reingest");
    let nm = Arc::new(NetMark::open(&dir).unwrap());
    nm.insert_file("a.txt", &doc_text(0, &[0])).unwrap();
    nm.insert_file("b.txt", &doc_text(0, &[1])).unwrap();
    let (stop, answers) = (
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicUsize::new(0)),
    );
    let reader = {
        let (nm, stop, answers) = (Arc::clone(&nm), Arc::clone(&stop), Arc::clone(&answers));
        std::thread::spawn(move || {
            let q = XdbQuery::from_url("doc=a.txt&Context=Budget").unwrap();
            while !stop.load(Ordering::Relaxed) {
                let rs = nm.engine().execute_uncached(&q).unwrap();
                assert_eq!(rs.len(), 1, "{}", rs.to_xml());
                answers.fetch_add(1, Ordering::Relaxed);
            }
        })
    };
    while answers.load(Ordering::Relaxed) == 0 && !reader.is_finished() {
        std::thread::yield_now();
    }
    for i in 0..200 {
        nm.insert_file("a.txt", &doc_text(0, &[i])).unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    reader.join().unwrap();
    assert_eq!(nm.list_documents().unwrap().len(), 2);
    drop(nm);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A batch whose second document cannot be stored publishes nothing: the
/// store, the index snapshot and the generation stay as they were, and
/// the next batch publishes none of the first document's postings.
#[test]
fn a_failed_batch_publishes_nothing() {
    let dir = scratch("failed");
    let nm = NetMark::open(&dir).unwrap();
    nm.insert_file("a.txt", &doc_text(0, &[0, 1])).unwrap();
    let pool = query_pool();
    let answers = |nm: &NetMark| -> Vec<String> {
        let run = |q| nm.engine().execute_uncached(q).unwrap().to_xml();
        pool.iter().map(run).collect()
    };
    let (docs, nodes) = (nm.list_documents().unwrap(), nm.stats().unwrap().nodes);
    let (snapshot, generation, before) = (
        nm.text_index().snapshot(),
        nm.store().generation(),
        answers(&nm),
    );
    // The second name is longer than a B-tree entry may be, so indexing
    // it fails after the first document's rows are written.
    let long = format!("{}.txt", "long-name-".repeat(300));
    let batch = [
        netmark_docformats::upmark("lonely.txt", "# Budget\nquixotic alpha\n"),
        netmark_docformats::upmark(&long, "# Heading\nbody\n"),
    ];
    assert!(nm.ingest_batch(&batch).is_err());
    assert_eq!(nm.list_documents().unwrap(), docs);
    assert_eq!(nm.stats().unwrap().nodes, nodes);
    assert!(Arc::ptr_eq(&nm.text_index().snapshot(), &snapshot));
    assert_eq!(nm.store().generation(), generation);
    assert_eq!(answers(&nm), before);

    // a.txt, lonely.txt and the long name each took a doc id: the batch
    // failed after the first document's rows were written.
    let b = nm.insert_file("b.txt", &doc_text(1, &[2])).unwrap();
    assert_eq!(b.doc_id, 4);
    assert_eq!(nm.store().generation(), generation + 1);
    let lonely = nm.query(&XdbQuery::content("quixotic")).unwrap();
    assert!(lonely.hits.is_empty(), "{}", lonely.to_xml());
    assert_eq!(nm.query(&XdbQuery::context("Safety")).unwrap().len(), 1);

    drop(nm);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The view and its index snapshot are published together, so a posting
/// whose document the view lacks is corruption: a query that reaches it
/// fails with `Corrupt` instead of dropping it.
#[test]
fn a_posting_of_an_absent_document_is_corruption() {
    let dir = scratch("corrupt");
    let nm = NetMark::open(&dir).unwrap();
    nm.insert_file("a.txt", &doc_text(0, &[0])).unwrap();
    // Above every id the store allocated, in a document it never had.
    let id = 1_000_000;
    let phantom = Placement {
        doc: 999_999,
        context: Some(id),
    };
    assert!(nm.text_index().add(id, phantom, "phantom alpha"));
    assert!(nm.text_index().commit());
    let ranked = |q: XdbQuery| q.with_rank(RankMode::Bm25);
    for q in [
        XdbQuery::content("phantom"),
        XdbQuery::content("alpha"),
        ranked(XdbQuery::content("phantom alpha")),
    ] {
        match nm.query(&q) {
            Err(NetmarkError::Corrupt(_)) => {}
            other => panic!("{}: {other:?}", q.to_query_string()),
        }
    }
    // A query that never admits the posting still answers: the store's
    // `alpha` hit fills the heap first and the phantom only truncates.
    let first = nm.query(&XdbQuery::content("alpha").with_limit(1)).unwrap();
    assert_eq!(first.len(), 1);
    assert_eq!(first.hits[0].doc, "a.txt");
    assert_eq!(nm.query(&XdbQuery::context("Budget")).unwrap().len(), 1);

    drop(nm);
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
