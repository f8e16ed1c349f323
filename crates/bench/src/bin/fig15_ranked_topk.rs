//! FIG15 — ranked top-k: bounded collection.
//!
//! Not a figure from the paper: this measures the reproduction's own
//! top-k read path. The claim under test: a ranked query with `limit=k`
//! keeps a k-entry heap of candidates and walks section content only for
//! the k winners, while returning *precisely* the first k hits of the same
//! query without a limit. Scoring stays exhaustive, but it runs inside the
//! text index on (document, context) ids, so the bounded query's store
//! reads track k (heap admissions and k winners) while its scoring cost
//! tracks the query terms' postings count, not the corpus's store walks.
//! Three phases:
//!
//! 1. **Identity** — every query shape at k ∈ {10, 100, 1000}, ranked and
//!    unranked, answers with exactly the first k hits of its unlimited
//!    form, with `truncated` set iff the unlimited answer is longer than
//!    k. Checked on a plain store, an N-shard store (two-wave scatter with
//!    a refined score floor), and a 2-peer federated databank (`limit` +
//!    `min_score` pushdown). The router derives `truncated` from its
//!    merged hit count only, so there the flag is checked to be sound,
//!    not complete. Unranked answers carry no scores.
//! 2. **Latency vs k** — the heaviest workload query with `limit=k` vs
//!    the same query with no limit, truncated to k by the client.
//! 3. **Latency vs corpus size** — the same k=10 comparison at 1/10th
//!    scale: `limit=10` latency grows with the heavy term's postings.
//!
//! `FIG15_DOCS` overrides the corpus size (CI smoke uses small values),
//! `FIG15_SHARDS` the shard count, `FIG15_ROUNDS` the sample count per
//! measurement.

use netmark::{Hit, NetMark, NetMarkOptions, QueryEngineOptions, RankMode, ResultSet};
use netmark_bench::{banner, fmt_dur, percentile, TableWriter, TempDir};
use netmark_corpus::{mixed, query_workload, CorpusConfig};
use netmark_docformats::upmark;
use netmark_federation::{NetmarkSource, Router};
use netmark_model::Document;
use netmark_shard::{ShardOptions, ShardedStore};
use netmark_xdb::XdbQuery;
use std::sync::Arc;
use std::time::Instant;

/// Marker term for planted needles (absent from the generated corpus).
const MARKER: &str = "zugzwang";

/// Needle term frequencies, strictly decreasing.
const NEEDLE_TF: &[usize] = &[32, 16, 8, 4, 2, 1];

/// Documents per ingest batch.
const BATCH: usize = 512;

/// The k sweep: the paper-of-record sizes for "first page", "deep page",
/// and "export" result shapes.
const KS: &[usize] = &[10, 100, 1000];

fn build_corpus(docs: usize, seed: u64) -> Vec<Document> {
    let mut out: Vec<Document> = mixed(&CorpusConfig::sized(docs).with_seed(seed))
        .iter()
        .filter(|d| !d.content.to_lowercase().contains(MARKER))
        .map(|d| upmark(&d.name, &d.content))
        .collect();
    for (i, &tf) in NEEDLE_TF.iter().enumerate() {
        let terms = vec![MARKER; tf].join(" ");
        out.push(upmark(
            &format!("needle-{i:02}.txt"),
            &format!("# Finding\n{terms} in test article {i}\n"),
        ));
    }
    out
}

/// Cache off (as in FIG14): warmth would mask the collect path this
/// figure is about.
fn options() -> NetMarkOptions {
    NetMarkOptions {
        query: QueryEngineOptions {
            cache_capacity: 0,
            ..QueryEngineOptions::default()
        },
        ..NetMarkOptions::default()
    }
}

/// The ranked battery: workload pairs as content and context+content
/// shapes (limits applied per phase).
fn query_mix() -> Vec<XdbQuery> {
    let mut qs = Vec::new();
    for (ctx, terms) in query_workload(15, 4) {
        qs.push(XdbQuery::content(&terms));
        qs.push(XdbQuery::context_content(&ctx, &terms));
    }
    qs
}

/// A 2-peer federated databank over `corpus` split round-robin; both
/// peers are full NETMARK sources, so the router pushes `limit=` and
/// `min_score=` down instead of merging unbounded answers.
fn build_router(scratch: &TempDir, tag: &str, corpus: &[Document]) -> Router {
    let mut router = Router::new();
    for peer in 0..2usize {
        let nm = Arc::new(
            NetMark::open_with(&scratch.join(&format!("{tag}-peer{peer}")), options())
                .expect("open peer"),
        );
        let part: Vec<Document> = corpus
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == peer)
            .map(|(_, d)| d.clone())
            .collect();
        for chunk in part.chunks(BATCH) {
            nm.ingest_batch(chunk).expect("peer ingest");
        }
        router
            .register_source(Arc::new(NetmarkSource::new(&format!("peer{peer}"), nm)))
            .expect("register");
    }
    router
        .define_databank("fed", &["peer0", "peer1"])
        .expect("bank");
    router
}

/// Acceptance check: `bounded` (the answer to `limit=k`) holds exactly the
/// first k hits of `unlimited` (the same query without a limit), and is
/// marked truncated iff `unlimited` holds more than k.
fn assert_prefix(what: &str, k: usize, bounded: &ResultSet, unlimited: &ResultSet) {
    assert_same_hits(what, k, bounded, unlimited);
    assert_eq!(
        bounded.truncated,
        unlimited.hits.len() > k,
        "acceptance: {what} limit={k} truncated flag"
    );
}

/// The hit half of [`assert_prefix`].
fn assert_same_hits(what: &str, k: usize, bounded: &ResultSet, unlimited: &ResultSet) {
    let want: &[Hit] = &unlimited.hits[..k.min(unlimited.hits.len())];
    assert_eq!(
        bounded.hits, want,
        "acceptance: {what} limit={k} == first {k} hits of the unlimited answer"
    );
}

/// p50 latencies of `limit=k` and of the unlimited query truncated to k on
/// the client, over `rounds` interleaved samples.
fn time_pair(
    nm: &NetMark,
    q: &XdbQuery,
    k: usize,
    rounds: usize,
) -> (std::time::Duration, std::time::Duration) {
    let bounded_q = q.clone().with_limit(k);
    let mut lat_b = Vec::with_capacity(rounds);
    let mut lat_u = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t = Instant::now();
        std::hint::black_box(nm.query(&bounded_q).expect("bounded").len());
        lat_b.push(t.elapsed());
        let t = Instant::now();
        let mut rs = nm.query(q).expect("unlimited");
        rs.hits.truncate(k);
        std::hint::black_box(rs.len());
        lat_u.push(t.elapsed());
    }
    (percentile(&mut lat_b, 0.50), percentile(&mut lat_u, 0.50))
}

fn main() {
    banner(
        "FIG15",
        "ranked top-k (bounded collection)",
        "a ranked limit=k query materializes O(k) hits behind a score \
         threshold that propagates through shard scatter and federation \
         pushdown — the first k hits of the unlimited answer, at any k",
    );
    let docs: usize = std::env::var("FIG15_DOCS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000);
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let shards: usize = std::env::var("FIG15_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 1)
        .unwrap_or_else(|| cores.clamp(2, 4));
    let rounds: usize = std::env::var("FIG15_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(9);
    let seed = 1515u64;
    println!(
        "corpus: {docs} background documents + {} needles, {shards}-shard deployment, \
         2-peer federation\n",
        NEEDLE_TF.len()
    );

    let corpus = build_corpus(docs, seed);

    let scratch = TempDir::new("fig15");
    let plain = NetMark::open_with(&scratch.join("plain"), options()).expect("open");
    let shard = ShardedStore::open_with(
        &scratch.join("shard"),
        ShardOptions {
            shards,
            netmark: options(),
        },
    )
    .expect("open sharded");
    let t0 = Instant::now();
    for chunk in corpus.chunks(BATCH) {
        plain.ingest_batch(chunk).expect("ingest");
        shard.ingest_batch(chunk).expect("ingest");
    }
    let fed = build_router(&scratch, "fed", &corpus);
    println!(
        "ingested {} documents into 3 deployments in {}\n",
        corpus.len(),
        fmt_dur(t0.elapsed())
    );

    // ---- Phase 1: identity at every k -----------------------------------
    let mix = query_mix();
    let mut compared = 0usize;
    for base in &mix {
        for q in [base.clone().with_rank(RankMode::Bm25), base.clone()] {
            let plain_all = plain.query(&q).expect("plain unlimited");
            let shard_all = shard.query(&q).expect("sharded unlimited");
            let fed_all = fed.query("fed", &q).expect("fed unlimited");
            assert!(!fed_all.degraded());
            for &k in KS {
                let kq = q.clone().with_limit(k);
                let p = plain.query(&kq).expect("plain bounded");
                assert_prefix("plain", k, &p, &plain_all);
                let s = shard.query(&kq).expect("sharded bounded");
                assert_prefix(&format!("{shards}-shard"), k, &s, &shard_all);
                let f = fed.query("fed", &kq).expect("fed bounded");
                assert!(!f.degraded());
                // The router sets `truncated` from its merged hit count
                // alone, so a peer that cut its own answer at k goes
                // unreported; check that the flag is never set falsely.
                assert_same_hits("federated", k, &f.results, &fed_all.results);
                assert!(
                    !f.results.truncated || fed_all.results.hits.len() > k,
                    "acceptance: federated limit={k} truncated only when more hits exist"
                );
                compared += 3;
                if !q.ranked() {
                    assert!(
                        !p.to_xml().contains("score"),
                        "unranked answers carry no scores"
                    );
                }
            }
        }
    }
    // Needle sanity: the bounded path preserves planted relevance order.
    let needle_q = XdbQuery::content(MARKER)
        .with_rank(RankMode::Bm25)
        .with_limit(NEEDLE_TF.len());
    let rs = plain.query(&needle_q).expect("needles");
    let got: Vec<&str> = rs.hits.iter().map(|h| h.doc.as_str()).collect();
    let want: Vec<String> = (0..NEEDLE_TF.len())
        .map(|i| format!("needle-{i:02}.txt"))
        .collect();
    assert_eq!(
        got,
        want.iter().map(String::as_str).collect::<Vec<_>>(),
        "acceptance: bounded top-k returns needles in planted order"
    );
    println!(
        "identity: {compared} query/deployment pairs at k ∈ {KS:?} (ranked and unranked; \
         plain, {shards}-shard, federated) equal the first k hits of the unlimited answer"
    );

    // ---- Phase 2: latency vs k -------------------------------------------
    // Measure on the heaviest battery query (most matches → the widest gap
    // between materializing k hits and materializing all of them).
    let heavy = mix
        .iter()
        .filter(|q| q.context.is_none())
        .max_by_key(|q| plain.query(q).map(|rs| rs.len()).unwrap_or(0))
        .expect("non-empty mix")
        .clone()
        .with_rank(RankMode::Bm25);
    let matches = plain.query(&heavy).expect("heavy").len();
    println!(
        "\nworkload query `{}` matches {matches} sections",
        heavy.to_query_string()
    );
    let mut table = TableWriter::new(&["k", "limit=k p50", "unlimited p50", "speedup"]);
    for &k in KS {
        let (p50b, p50u) = time_pair(&plain, &heavy, k, rounds);
        table.row(&[
            k.to_string(),
            fmt_dur(p50b),
            fmt_dur(p50u),
            format!("{:.2}x", p50u.as_secs_f64() / p50b.as_secs_f64().max(1e-9)),
        ]);
    }
    table.print();
    let qs = plain.stats().expect("stats").query;
    println!("collection heap evictions: {}", qs.heap_evictions);

    // ---- Phase 3: latency vs corpus size ---------------------------------
    let small_docs = (docs / 10).max(200);
    let small_corpus = build_corpus(small_docs, seed);
    let small = NetMark::open_with(&scratch.join("small"), options()).expect("open");
    for chunk in small_corpus.chunks(BATCH) {
        small.ingest_batch(chunk).expect("ingest");
    }
    let mut table = TableWriter::new(&[
        "docs",
        "postings scored",
        "limit=10 p50",
        "unlimited p50",
        "speedup",
    ]);
    for (size, nm) in [(small_docs, &small), (docs, &plain)] {
        let (p50b, p50u) = time_pair(nm, &heavy, 10, rounds);
        let (_, trace) = nm
            .query_traced(&heavy.clone().with_limit(10))
            .expect("traced");
        table.row(&[
            size.to_string(),
            trace.candidates.to_string(),
            fmt_dur(p50b),
            fmt_dur(p50u),
            format!("{:.2}x", p50u.as_secs_f64() / p50b.as_secs_f64().max(1e-9)),
        ]);
    }
    table.print();
    println!("\nFIG15 acceptance criteria satisfied");
}
