//! View-read counting: a `Context=` query reads the store to admit
//! candidates and to build its winners, never once per labelled section.
//!
//! The buffer pool counts every page an MVCC view reads (a copy of a clean
//! frame is a hit, a read from disk a miss), so the change in
//! `pool_stats` across one cold query is the pages that query read. After
//! a flush the committed state is in the data files, not in the MVCC
//! overlay, so every read is counted. A query that read a row of each
//! matching section would read at least 200 more pages when the store
//! gains 200 more of them; one that reads none grows only by the levels
//! its B-tree probes gain.

use netmark::{Document, NetMark, NetMarkOptions, QueryEngineOptions, XdbQuery};
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("netmark-reads-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn open(dir: &std::path::Path) -> NetMark {
    let options = NetMarkOptions {
        query: QueryEngineOptions {
            cache_capacity: 0,
            ..QueryEngineOptions::default()
        },
        background_compaction: false,
        ..NetMarkOptions::default()
    };
    NetMark::open_with(dir, options).expect("open")
}

/// Documents `from..from + n`, each with a `Budget` and a `Schedule`
/// section.
fn plans(from: usize, n: usize) -> Vec<Document> {
    (from..from + n)
        .map(|i| {
            netmark_docformats::upmark(
                &format!("plan-{i:04}.txt"),
                &format!("# Budget\ncost line {i}\n\nsecond paragraph\n# Schedule\n{i} weeks\n"),
            )
        })
        .collect()
}

/// Flushes, then answers `url` cold: the pages the query's view read and
/// the hit count.
fn page_reads(nm: &NetMark, url: &str) -> (u64, usize) {
    nm.flush().expect("flush");
    let q = XdbQuery::from_url(url).expect("query");
    let db = nm.store().database();
    let before = db.pool_stats();
    let rs = nm.engine().execute_uncached(&q).expect("execute");
    let after = db.pool_stats();
    (
        after.hits + after.misses - before.hits - before.misses,
        rs.len(),
    )
}

/// Page reads of `url` over 200 plans, then over 400.
fn reads_at_200_and_400(tag: &str, url: &str, hits: usize) -> (u64, u64) {
    let dir = scratch(tag);
    let nm = open(&dir);
    nm.ingest_batch(&plans(0, 200)).expect("ingest");
    let (small, n) = page_reads(&nm, url);
    assert_eq!(n, hits, "{url} over 200 plans");
    nm.ingest_batch(&plans(200, 200)).expect("ingest");
    let (large, n) = page_reads(&nm, url);
    assert_eq!(n, hits, "{url} over 400 plans");
    drop(nm);
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(small > 0, "view reads are counted");
    (small, large)
}

#[test]
fn a_context_query_reads_rows_for_its_winners_not_its_sections() {
    let (small, large) = reads_at_200_and_400("limit", "Context=Budget&limit=10", 10);
    // Ten admissions and ten winners, each a probe of a few pages.
    assert!(small < 200, "{small} pages read for 10 of 200 sections");
    assert!(
        large < small + 50,
        "200 more Budget sections took the reads from {small} to {large} pages"
    );
}

#[test]
fn a_doc_scoped_context_query_reads_no_other_document() {
    let url = "doc=plan-0100.txt&Context=Budget";
    let (small, large) = reads_at_200_and_400("doc", url, 1);
    assert!(small < 40, "{small} pages read for one section");
    assert!(
        large < small + 20,
        "200 more documents took the reads from {small} to {large} pages"
    );
}
