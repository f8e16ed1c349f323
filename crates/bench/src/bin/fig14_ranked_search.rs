//! FIG14 — ranked BM25 search as a negotiated capability.
//!
//! Not a figure from the paper: this measures the reproduction's own
//! wire-v2 ranking subsystem (`rank=bm25`). Three phases:
//!
//! 1. **Seeded relevance** — a background corpus is salted with "needle"
//!    documents containing a marker term at strictly decreasing term
//!    frequencies. A ranked content query must return the needles first,
//!    in planted order, with non-increasing scores. This is a hard assert
//!    on the BM25 collect path, not a statistical claim.
//! 2. **Deployment equivalence** — the same corpus is ingested into a
//!    plain store, a 1-shard store, and an N-shard store. `rank=none`
//!    answers must be byte-identical across all three (ranking must cost
//!    pre-v2 queries nothing, not even a byte); the 1-shard ranked answer
//!    must be byte-identical to the plain store's (same index, same
//!    statistics, same scores); and the N-shard ranked answer must agree
//!    with 1 shard on the match *set* (shard-local statistics reorder
//!    within the set, never change it) and on the needle top-k.
//! 3. **Ranking overhead** — the workload battery runs as `rank=none` and
//!    `rank=bm25` over the plain store; the table reports p50s and the
//!    overhead ratio of scoring at collect time.
//!
//! `FIG14_DOCS` overrides the corpus size (CI smoke runs use small
//! values), `FIG14_SHARDS` the shard count of the sharded deployment.

use netmark::{NetMark, NetMarkOptions, QueryEngineOptions, RankMode};
use netmark_bench::{banner, fmt_dur, percentile, TableWriter, TempDir};
use netmark_corpus::{mixed, query_workload, CorpusConfig};
use netmark_docformats::upmark;
use netmark_model::Document;
use netmark_shard::{ShardOptions, ShardedStore};
use netmark_xdb::XdbQuery;
use std::time::Instant;

/// Marker term for the planted needles; absent from the generated corpus
/// vocabulary (asserted at build time below).
const MARKER: &str = "zugzwang";

/// Needle term frequencies, strictly decreasing: needle 0 must outrank
/// needle 1, and so on.
const NEEDLE_TF: &[usize] = &[32, 16, 8, 4, 2, 1];

/// Documents per ingest batch.
const BATCH: usize = 512;

/// The full upmarked corpus: background documents (filtered to never
/// contain the marker) plus the needles, deterministically ordered so
/// every deployment ingests the exact same sequence.
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

/// Cache off (as in FIG11/FIG13): a generation-stamped cache would
/// fold warmth into figures about the scoring path itself.
fn cold_options() -> NetMarkOptions {
    NetMarkOptions {
        query: QueryEngineOptions {
            cache_capacity: 0,
            ..QueryEngineOptions::default()
        },
        ..NetMarkOptions::default()
    }
}

/// The measured query battery: workload pairs as content, context, and
/// combined shapes (no limit — phase 2 compares full match sets).
fn query_mix() -> Vec<XdbQuery> {
    let mut qs = Vec::new();
    for (ctx, terms) in query_workload(14, 4) {
        qs.push(XdbQuery::content(&terms));
        qs.push(XdbQuery::context(&ctx));
        qs.push(XdbQuery::context_content(&ctx, &terms));
    }
    qs
}

/// Wire-visible section identities of a result set, order-insensitive
/// (node ids are store-local and differ across deployments).
fn hit_set(rs: &netmark::ResultSet) -> std::collections::BTreeSet<(String, String, String)> {
    rs.hits
        .iter()
        .map(|h| (h.doc.clone(), h.context.clone(), h.content_text()))
        .collect()
}

fn main() {
    banner(
        "FIG14",
        "ranked BM25 search as a negotiated capability (wire v2)",
        "per-segment length statistics feed BM25 scoring at collect time; \
         rank=none stays byte-identical to the pre-ranking wire, ranked \
         answers merge score-aware across shards and federated sources",
    );
    let docs: usize = std::env::var("FIG14_DOCS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000);
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let shards: usize = std::env::var("FIG14_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 1)
        .unwrap_or_else(|| cores.clamp(2, 4));
    let seed = 1414u64;
    println!(
        "corpus: {docs} background documents + {} needles, {shards}-shard deployment\n",
        NEEDLE_TF.len()
    );

    let corpus = build_corpus(docs, seed);

    // Three deployments over the same document sequence.
    let plain_dir = TempDir::new("fig14-plain");
    let plain = NetMark::open_with(plain_dir.path(), cold_options()).expect("open plain store");
    let one_dir = TempDir::new("fig14-1shard");
    let one = ShardedStore::open_with(
        one_dir.path(),
        ShardOptions {
            shards: 1,
            netmark: cold_options(),
        },
    )
    .expect("open 1-shard store");
    let n_dir = TempDir::new(&format!("fig14-{shards}shard"));
    let sharded = ShardedStore::open_with(
        n_dir.path(),
        ShardOptions {
            shards,
            netmark: cold_options(),
        },
    )
    .expect("open sharded store");
    let t0 = Instant::now();
    for chunk in corpus.chunks(BATCH) {
        plain.ingest_batch(chunk).expect("plain ingest");
        one.ingest_batch(chunk).expect("1-shard ingest");
        sharded.ingest_batch(chunk).expect("sharded ingest");
    }
    println!(
        "ingested {} documents into 3 deployments in {}\n",
        corpus.len(),
        fmt_dur(t0.elapsed())
    );

    // ---- Phase 1: seeded relevance ---------------------------------------
    let needle_q = XdbQuery::content(MARKER)
        .with_rank(RankMode::Bm25)
        .with_limit(NEEDLE_TF.len());
    let rs = plain.query(&needle_q).expect("needle query");
    assert!(rs.ranked, "ranked queries mark the result set ranked");
    let got: Vec<&str> = rs.hits.iter().map(|h| h.doc.as_str()).collect();
    let want: Vec<String> = (0..NEEDLE_TF.len())
        .map(|i| format!("needle-{i:02}.txt"))
        .collect();
    assert_eq!(
        got,
        want.iter().map(String::as_str).collect::<Vec<_>>(),
        "acceptance: needles return in planted relevance order"
    );
    let scores: Vec<f64> = rs
        .hits
        .iter()
        .map(|h| h.score.expect("scored hit"))
        .collect();
    assert!(
        scores.windows(2).all(|w| w[0] > w[1]),
        "acceptance: strictly decreasing tf gives strictly decreasing scores, got {scores:?}"
    );
    println!(
        "relevance: {} needles (tf {NEEDLE_TF:?}) ranked in planted order, scores {:.3}..{:.3}",
        NEEDLE_TF.len(),
        scores.first().unwrap(),
        scores.last().unwrap()
    );

    // ---- Phase 2: deployment equivalence ---------------------------------
    let mix = query_mix();
    for q in &mix {
        // rank=none: byte-identical everywhere — the pre-v2 wire, exactly.
        let p = plain.query(q).expect("plain").to_xml();
        let o = one.query(q).expect("1-shard").to_xml();
        let s = sharded.query(q).expect("sharded").to_xml();
        assert_eq!(p, o, "acceptance: rank=none 1-shard == plain for {q:?}");
        assert_eq!(
            p, s,
            "acceptance: rank=none {shards}-shard == plain for {q:?}"
        );
        assert!(!p.contains("score"), "unranked answers carry no scores");

        // rank=bm25: 1 shard is byte-identical to plain (same statistics);
        // N shards agree on the match set (shard-local statistics may
        // reorder within it, never change it).
        let rq = q.clone().with_rank(RankMode::Bm25);
        let rp = plain.query(&rq).expect("plain ranked");
        let ro = one.query(&rq).expect("1-shard ranked");
        let rr = sharded.query(&rq).expect("sharded ranked");
        assert_eq!(
            rp.to_xml(),
            ro.to_xml(),
            "acceptance: ranked 1-shard == plain, scores included, for {q:?}"
        );
        assert_eq!(
            hit_set(&rp),
            hit_set(&rr),
            "acceptance: ranked {shards}-shard match set == plain for {q:?}"
        );
    }
    // The needle top-k agrees across shard counts: the planted score gap
    // dominates any shard-local statistics drift.
    let rs_sharded = sharded.query(&needle_q).expect("sharded needles");
    assert!(rs_sharded.ranked);
    let sharded_top: std::collections::BTreeSet<String> =
        rs_sharded.hits.iter().map(|h| h.doc.clone()).collect();
    assert_eq!(
        sharded_top,
        want.iter().cloned().collect(),
        "acceptance: {shards}-shard and 1-shard deployments agree on the needle top-k set"
    );
    println!(
        "equivalence: {} query shapes — rank=none byte-identical across 3 deployments, \
         ranked 1-shard byte-identical to plain, {shards}-shard match sets equal",
        mix.len()
    );

    // ---- Phase 3: ranking overhead ---------------------------------------
    let rounds: usize = std::env::var("FIG14_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(9);
    let mut table = TableWriter::new(&[
        "query",
        "hits",
        "rank=none p50",
        "rank=bm25 p50",
        "overhead",
    ]);
    for q in mix.iter().take(6) {
        let ranked_q = q.clone().with_rank(RankMode::Bm25);
        let mut plainlat = Vec::with_capacity(rounds);
        let mut ranklat = Vec::with_capacity(rounds);
        let mut hits = 0usize;
        for _ in 0..rounds {
            let t = Instant::now();
            hits = plain.query(q).expect("unranked").len();
            plainlat.push(t.elapsed());
            let t = Instant::now();
            std::hint::black_box(plain.query(&ranked_q).expect("ranked").len());
            ranklat.push(t.elapsed());
        }
        let p50n = percentile(&mut plainlat, 0.50);
        let p50r = percentile(&mut ranklat, 0.50);
        table.row(&[
            q.to_query_string(),
            hits.to_string(),
            fmt_dur(p50n),
            fmt_dur(p50r),
            format!("{:.2}x", p50r.as_secs_f64() / p50n.as_secs_f64().max(1e-9)),
        ]);
    }
    table.print();
    println!("\nFIG14 acceptance criteria satisfied");
}
