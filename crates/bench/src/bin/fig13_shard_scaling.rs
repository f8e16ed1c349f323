//! FIG13 — shard-per-core store: scatter-gather scaling on one box.
//!
//! Not a figure from the paper: this measures the reproduction's own
//! `netmark-shard` subsystem, the paper's thin-router federation folded
//! into a single process. Three phases:
//!
//! 1. **Scaling table** — the same corpus is batch-ingested into sharded
//!    stores of 1, 2, 4, … shards; each row reports ingest throughput
//!    (batches scatter across shards, one WAL commit per shard per batch)
//!    and idle query latency over the standard workload. Near-linear
//!    ingest scaling is the figure; the table prints the speedup column.
//! 2. **Byte-identical results** — every query in the battery must render
//!    the same XML from the N-shard store and the 1-shard store: same
//!    hits, same order, same `candidates`, same `truncated` flag. The
//!    merge keys hits by the global ingest-sequence log, so this is a
//!    hard assert, not a statistical claim.
//! 3. **Query p99 under self-federated ingest** — readers hammer the
//!    N-shard store while a writer streams documents into it.
//!    Acceptance: the sharded p99 under ingest stays within 2x of the
//!    single-shard *idle* p99 — sharding must not give back what MVCC
//!    bought (FIG11). Hard-asserted only when the box has at least one
//!    core per shard; with fewer, the ratio measures the scheduler, not
//!    the subsystem, and is reported as advisory.
//!
//! `FIG13_DOCS` overrides the corpus size (the full figure uses 1M+;
//! CI smoke runs use small values), `FIG13_SHARDS` the maximum shard
//! count, and `FIG13_SECS` the phase-3 measurement window.

use netmark::{NetMarkOptions, QueryEngineOptions, XdbBackend};
use netmark_bench::{banner, fmt_dur, percentile, TableWriter, TempDir};
use netmark_corpus::{mixed, query_workload, CorpusConfig};
use netmark_docformats::upmark;
use netmark_model::Document;
use netmark_shard::{ShardOptions, ShardedStore};
use netmark_xdb::XdbQuery;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Documents per scatter batch — one WAL commit per shard per batch.
const BATCH: usize = 512;

/// Generates batch `chunk` of the corpus, upmarked and uniquely named.
///
/// The corpus is produced chunk-at-a-time (seed varies per chunk, names
/// prefixed by chunk index) so a 1M-document run never holds the whole
/// corpus in memory, and every store ingests the exact same sequence by
/// regenerating it deterministically.
fn corpus_batch(chunk: usize, size: usize, seed: u64) -> Vec<Document> {
    mixed(&CorpusConfig::sized(size).with_seed(seed.wrapping_add(chunk as u64)))
        .iter()
        .map(|d| upmark(&format!("c{chunk:05}-{}", d.name), &d.content))
        .collect()
}

/// The measured query mix: workload pairs as content, context, and
/// combined shapes. Limits keep the rendered XML bounded on large corpora
/// while exercising exactly the shard-aware pushdown + merge-truncation
/// paths the subsystem must get right.
fn query_mix() -> Vec<XdbQuery> {
    let mut qs = Vec::new();
    for (ctx, terms) in query_workload(13, 4) {
        qs.push(XdbQuery::content(&terms).with_limit(100));
        qs.push(XdbQuery::context(&ctx).with_limit(100));
        qs.push(XdbQuery::context_content(&ctx, &terms).with_limit(100));
    }
    qs.push(
        XdbQuery::content("shuttle engine")
            .with_phrase_match()
            .with_limit(50),
    );
    qs
}

/// Readers hammer `exec` with the query mix while `writer` runs; returns
/// all observed query latencies.
fn hammer<W, E>(readers: usize, writer: W, exec: E) -> Vec<Duration>
where
    W: FnOnce() + Send,
    E: Fn(&XdbQuery) -> usize + Sync,
{
    let queries = query_mix();
    let done = AtomicBool::new(false);
    let all = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..readers)
            .map(|r| {
                let queries = &queries;
                let done = &done;
                let all = &all;
                let exec = &exec;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    let mut i = r;
                    while !done.load(Ordering::Relaxed) {
                        let q = &queries[i % queries.len()];
                        let t = Instant::now();
                        let n = exec(q);
                        local.push(t.elapsed());
                        std::hint::black_box(n);
                        i += 1;
                    }
                    all.lock().unwrap().extend(local);
                })
            })
            .collect();
        writer();
        done.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().expect("reader");
        }
    });
    all.into_inner().unwrap()
}

/// Ingests the full corpus into a fresh `shards`-way store; returns the
/// store and the ingest wall time.
fn load_sharded(
    dir: &std::path::Path,
    shards: usize,
    docs: usize,
    seed: u64,
) -> (ShardedStore, Duration) {
    // Cache off, as in FIG11: it is generation-stamped, so an idle store
    // keeps it warm while a streaming store has it invalidated by every
    // commit — leaving it on would fold cache warmth into a figure that
    // is about scatter-gather. Cold execution
    // on every row and both sides of the streaming comparison.
    let st = ShardedStore::open_with(
        dir,
        ShardOptions {
            shards,
            netmark: NetMarkOptions {
                query: QueryEngineOptions {
                    cache_capacity: 0,
                    ..QueryEngineOptions::default()
                },
                ..NetMarkOptions::default()
            },
        },
    )
    .expect("open sharded store");
    let chunks = docs.div_ceil(BATCH);
    let t0 = Instant::now();
    let mut remaining = docs;
    for c in 0..chunks {
        let batch = corpus_batch(c, remaining.min(BATCH), seed);
        remaining -= batch.len();
        st.ingest_batch(&batch).expect("batch ingest");
    }
    (st, t0.elapsed())
}

fn main() {
    banner(
        "FIG13",
        "shard-per-core store: scatter-gather queries, self-federated ingest",
        "documents partition by name hash across N in-process NETMARK \
         shards; batched ingest scatters with one WAL commit per shard, \
         queries scatter-gather with limit pushdown and a seq-log-ordered \
         merge that is byte-identical to a single shard",
    );
    let docs: usize = std::env::var("FIG13_DOCS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000);
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let max_shards: usize = std::env::var("FIG13_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| cores.min(8));
    let secs: u64 = std::env::var("FIG13_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let readers = (cores.saturating_sub(1)).clamp(1, 4);
    let seed = 4242u64;
    println!(
        "corpus: {docs} documents, shards 1..={max_shards} ({cores} cores), \
         {readers} readers, {secs}s streaming window\n"
    );

    // Shard counts: 1, 2, 4, … up to max_shards (max always included).
    let mut counts = vec![1usize];
    while counts.last().copied().unwrap() * 2 < max_shards {
        counts.push(counts.last().unwrap() * 2);
    }
    if max_shards > 1 {
        counts.push(max_shards);
    }

    // ---- Phase 1: ingest throughput + idle query latency per row --------
    let window = Duration::from_secs(secs);
    let mut table = TableWriter::new(&[
        "shards", "ingest", "docs/s", "speedup", "queries", "p50", "p99",
    ]);
    let mut base_rate = 0.0f64;
    let mut single_idle_p99 = Duration::ZERO;
    let mut keep: Vec<(usize, TempDir, ShardedStore)> = Vec::new();
    for &n in &counts {
        let scratch = TempDir::new(&format!("fig13-{n}"));
        let (st, ingest) = load_sharded(scratch.path(), n, docs, seed);
        let rate = docs as f64 / ingest.as_secs_f64().max(1e-9);
        if n == 1 {
            base_rate = rate;
        }
        let mut idle = hammer(
            readers,
            || std::thread::sleep(window),
            |q| st.query(q).expect("query").len(),
        );
        let (p50, p99) = (percentile(&mut idle, 0.50), percentile(&mut idle, 0.99));
        if n == 1 {
            single_idle_p99 = p99;
        }
        table.row(&[
            n.to_string(),
            fmt_dur(ingest),
            format!("{rate:.0}"),
            format!("{:.2}x", rate / base_rate.max(1e-9)),
            idle.len().to_string(),
            fmt_dur(p50),
            fmt_dur(p99),
        ]);
        if n == 1 || n == max_shards {
            keep.push((n, scratch, st));
        }
    }
    table.print();

    // ---- Phase 2: byte-identical to the single-shard store --------------
    let single = &keep.first().expect("single-shard row").2;
    let sharded = &keep.last().expect("max-shard row").2;
    for q in &query_mix() {
        let s = sharded.query(q).expect("sharded query").to_xml();
        let r = single.query(q).expect("single query").to_xml();
        assert_eq!(
            s,
            r,
            "acceptance: {}-shard results must be byte-identical to 1 shard for {q:?}",
            keep.last().unwrap().0
        );
    }
    println!(
        "\nidentical results: {} query shapes byte-identical across \
         {} vs 1 shards over {docs} documents",
        query_mix().len(),
        keep.last().unwrap().0
    );

    // ---- Phase 3: query p99 under self-federated streaming ingest -------
    let stream_total = Arc::new(Mutex::new(0usize));
    let mut streaming = {
        let deadline = Instant::now() + window;
        let total = Arc::clone(&stream_total);
        hammer(
            readers,
            move || {
                let mut i = 0usize;
                while Instant::now() < deadline {
                    let name = format!("stream-{i}.txt");
                    let content = format!("# Filler\nzephyr quartz marl gneiss batch {i}\n");
                    XdbBackend::insert_file(sharded, &name, &content).expect("stream ingest");
                    i += 1;
                    std::thread::sleep(Duration::from_millis(5));
                }
                *total.lock().unwrap() = i;
            },
            |q| sharded.query(q).expect("query").len(),
        )
    };
    let sp99 = percentile(&mut streaming, 0.99);
    let ratio = sp99.as_secs_f64() / single_idle_p99.as_secs_f64().max(1e-9);
    println!(
        "\nstreaming: {} documents ingested while {} queries ran; \
         sharded p99 under ingest {} = {ratio:.2}x the single-shard idle p99 {}",
        stream_total.lock().unwrap(),
        streaming.len(),
        fmt_dur(sp99),
        fmt_dur(single_idle_p99)
    );
    // The shard-per-core premise needs the cores: on a box with fewer
    // cores than shards, scatter-gather degrades to time-slicing one CPU
    // across every shard plus the writer, and the p99 comparison measures
    // the scheduler, not the subsystem. Hard-assert only when each shard
    // can actually have a core; otherwise the ratio above is advisory.
    if cores >= keep.last().unwrap().0 {
        assert!(
            ratio <= 2.0,
            "acceptance: sharded p99 under ingest ({}) must stay within 2x \
             of the single-shard idle p99 ({})",
            fmt_dur(sp99),
            fmt_dur(single_idle_p99)
        );
        println!("\nFIG13 acceptance criteria satisfied");
    } else {
        println!(
            "\nFIG13: byte-identity satisfied; p99 ratio advisory only \
             ({cores} cores < {} shards — shard-per-core premise not met \
             on this box)",
            keep.last().unwrap().0
        );
    }
}
