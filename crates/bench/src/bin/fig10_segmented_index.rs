//! FIG10 — the segmented snapshot text index: snapshot reads under
//! ingest, background compaction, incremental persistence.
//!
//! Not a figure from the paper: this measures the reproduction's own
//! index substrate. Four phases:
//!
//! 1. **Read latency under ingest** — reader threads execute a query mix
//!    while a writer ingests batches continuously. Baseline: the legacy
//!    single-map [`InvertedIndex`] behind a `std::sync::RwLock` (readers
//!    wait out every batch's write lock). Segmented: readers clone the
//!    published snapshot; commits publish new snapshots; a background
//!    compactor churns concurrently. Acceptance: segmented query p99 is
//!    ≥ 5x below the write-locked baseline.
//! 2. **Byte-identical results** — the same corpus through both shapes
//!    (with compaction churn on the segmented side) must answer every
//!    query shape identically.
//! 3. **Incremental persistence** — `save()` cost is proportional to
//!    newly sealed segments, not index size.
//! 4. **Compaction reclaims** — after a mass removal, compaction
//!    physically purges tombstoned postings and `byte_size()` shrinks.
//!
//! `FIG10_DOCS` overrides the corpus size and `FIG10_SECS` the phase-1
//! measurement window (CI smoke runs use small values).

use netmark_bench::{banner, fmt_dur, percentile, TableWriter, TempDir};
use netmark_textindex::{InvertedIndex, Placement, SegmentedIndex, TextQuery};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

const VOCAB: &[&str] = &[
    "shuttle",
    "engine",
    "budget",
    "schedule",
    "anomaly",
    "telemetry",
    "gap",
    "million",
    "risk",
    "apollo",
    "saturn",
    "harness",
    "inspection",
    "lesson",
    "center",
    "flight",
    "readiness",
    "orbit",
    "payload",
    "thermal",
];

/// Deterministic doc text: ~10 words drawn by a seeded LCG.
fn doc_text(seed: u64) -> String {
    let mut x = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let mut s = String::new();
    for i in 0..10 {
        if i > 0 {
            s.push(' ');
        }
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        s.push_str(VOCAB[(x >> 33) as usize % VOCAB.len()]);
    }
    s
}

fn query_mix() -> Vec<TextQuery> {
    let t = |w: &str| TextQuery::Term(w.to_string());
    vec![
        t("shuttle"),
        TextQuery::And(vec![t("engine"), t("budget")]),
        TextQuery::And(vec![t("shuttle"), t("engine"), t("telemetry")]),
        TextQuery::Or(vec![t("anomaly"), t("lesson")]),
        TextQuery::Not(Box::new(TextQuery::All), Box::new(t("gap"))),
        TextQuery::Phrase(vec!["engine".to_string(), "budget".to_string()]),
        TextQuery::Prefix("sch".to_string()),
    ]
}

/// Every query shape, for the identical-results assertion.
fn full_battery() -> Vec<TextQuery> {
    let t = |w: &str| TextQuery::Term(w.to_string());
    let mut qs = vec![TextQuery::All];
    for w in VOCAB {
        qs.push(t(w));
    }
    qs.extend(query_mix());
    qs.push(TextQuery::And(vec![TextQuery::All, t("orbit")]));
    qs.push(TextQuery::Or(vec![TextQuery::All, t("risk")]));
    qs.push(TextQuery::Not(
        Box::new(t("payload")),
        Box::new(t("thermal")),
    ));
    qs.push(TextQuery::Prefix("zz".to_string()));
    qs
}

/// Readers hammer `exec` with the query mix while `writer` runs; returns
/// all observed query latencies.
fn hammer_reads<W, E>(readers: usize, writer: W, exec: E) -> Vec<Duration>
where
    W: FnOnce() + Send,
    E: Fn(&TextQuery) -> usize + Sync,
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

fn main() {
    banner(
        "FIG10",
        "segmented snapshot text index",
        "readers clone one published snapshot and never wait on ingest; \
         background compaction merges runs and purges tombstones; save() \
         writes only newly sealed segments",
    );
    let n: usize = std::env::var("FIG10_DOCS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000);
    let secs: u64 = std::env::var("FIG10_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    // Phase 1 is wall-clock-bounded, so the batch keeps a floor: small
    // smoke corpora must still produce real write-lock convoys in the
    // baseline.
    let batch = (n / 20).max(1000);
    let readers = 4;
    let window = Duration::from_secs(secs);
    println!("corpus: {n} docs, batch {batch}, {readers} readers, {secs}s/side\n");

    // ---- Phase 1: read latency under continuous batch ingest -----------
    let baseline = Arc::new(RwLock::new(InvertedIndex::new()));
    let mut base_lat = {
        let ix = Arc::clone(&baseline);
        hammer_reads(
            readers,
            || {
                let deadline = Instant::now() + window;
                let mut id = 1u64;
                while Instant::now() < deadline {
                    let mut w = ix.write().unwrap();
                    for _ in 0..batch {
                        w.add(id, &doc_text(id));
                        id += 1;
                    }
                    drop(w);
                    std::thread::sleep(Duration::from_micros(200));
                }
            },
            |q| baseline.read().unwrap().execute(q).len(),
        )
    };

    let seg = Arc::new(SegmentedIndex::new());
    let compactor = seg.start_compactor();
    let mut seg_lat = {
        let ix = Arc::clone(&seg);
        hammer_reads(
            readers,
            || {
                let deadline = Instant::now() + window;
                let mut id = 1u64;
                while Instant::now() < deadline {
                    for _ in 0..batch {
                        ix.add(id, Placement::default(), &doc_text(id));
                        id += 1;
                    }
                    ix.commit();
                    std::thread::sleep(Duration::from_micros(200));
                }
            },
            |q| seg.snapshot().execute(q).len(),
        )
    };
    drop(compactor);

    let (bp50, bp99) = (
        percentile(&mut base_lat, 0.50),
        percentile(&mut base_lat, 0.99),
    );
    let (sp50, sp99) = (
        percentile(&mut seg_lat, 0.50),
        percentile(&mut seg_lat, 0.99),
    );
    let mut t = TableWriter::new(&["index", "queries", "p50", "p99", "docs ingested"]);
    t.row(&[
        "RwLock<InvertedIndex>".into(),
        base_lat.len().to_string(),
        fmt_dur(bp50),
        fmt_dur(bp99),
        baseline.read().unwrap().len().to_string(),
    ]);
    let seg_stats = seg.stats();
    t.row(&[
        "SegmentedIndex".into(),
        seg_lat.len().to_string(),
        fmt_dur(sp50),
        fmt_dur(sp99),
        seg_stats.docs.to_string(),
    ]);
    t.print();
    let p99_ratio = bp99.as_secs_f64() / sp99.as_secs_f64().max(1e-9);
    println!(
        "p99 ratio: {p99_ratio:.1}x  (segments={} seals={} compactions={})\n",
        seg_stats.segments, seg_stats.seals, seg_stats.compactions
    );

    // ---- Phase 2: byte-identical results over the same corpus ----------
    let reference = {
        let mut ix = InvertedIndex::new();
        for id in 1..=n as u64 {
            ix.add(id, &doc_text(id));
        }
        ix
    };
    let segmented = SegmentedIndex::new();
    for id in 1..=n as u64 {
        segmented.add(id, Placement::default(), &doc_text(id));
        if id % batch as u64 == 0 {
            segmented.commit();
            // Interleave compaction with ingest, as the background thread
            // would.
            segmented.compact();
        }
    }
    segmented.commit();
    let battery = full_battery();
    for q in &battery {
        assert_eq!(
            segmented.execute(q),
            reference.execute(q),
            "segmented and reference answers diverge for {q:?}"
        );
    }
    assert_eq!(
        segmented.search_bm25("shuttle engine"),
        reference.search_bm25("shuttle engine")
    );
    println!(
        "identical results: {} query shapes byte-identical across {} docs",
        battery.len(),
        n
    );

    // ---- Phase 3: incremental persistence -------------------------------
    let scratch = TempDir::new("fig10");
    let dir = scratch.join("seg.idx.d");
    let r1 = segmented.save(&dir).expect("initial save");
    let mut id = n as u64;
    for _ in 0..batch {
        id += 1;
        segmented.add(id, Placement::default(), &doc_text(id));
    }
    segmented.commit();
    let r2 = segmented.save(&dir).expect("incremental save");
    let mut t = TableWriter::new(&["save", "segments written", "bytes written", "live segments"]);
    t.row(&[
        "full (first)".into(),
        r1.segments_written.to_string(),
        r1.bytes_written.to_string(),
        r1.total_segments.to_string(),
    ]);
    t.row(&[
        "after one batch".into(),
        r2.segments_written.to_string(),
        r2.bytes_written.to_string(),
        r2.total_segments.to_string(),
    ]);
    t.print();
    assert!(
        r2.segments_written == 1 && r2.bytes_written < r1.bytes_written,
        "acceptance: save cost must track newly sealed segments, not index \
         size (first={} segs/{} bytes, incremental={} segs/{} bytes)",
        r1.segments_written,
        r1.bytes_written,
        r2.segments_written,
        r2.bytes_written
    );
    let reloaded = SegmentedIndex::load(&dir).expect("reload");
    assert_eq!(reloaded.len(), segmented.len(), "reload round-trips");

    // ---- Phase 4: compaction reclaims tombstoned postings ---------------
    let bytes_before = segmented.byte_size();
    let mut removed = 0u64;
    for dead in (1..=id).step_by(2) {
        if segmented.remove(dead) {
            removed += 1;
        }
    }
    segmented.commit();
    let passes = segmented.compact();
    let bytes_after = segmented.byte_size();
    let st = segmented.stats();
    println!(
        "\ncompaction: removed {removed} docs; {passes} passes purged {} ids, \
         {} postings; byte_size {} -> {} ({}% reclaimed); tombstones left: {}",
        st.ids_purged,
        st.postings_purged,
        bytes_before,
        bytes_after,
        100 * (bytes_before.saturating_sub(bytes_after)) / bytes_before.max(1),
        st.tombstones
    );
    assert!(
        bytes_after < bytes_before,
        "acceptance: compaction must reclaim tombstoned postings \
         ({bytes_before} -> {bytes_after})"
    );
    assert_eq!(st.tombstones, 0, "all tombstones physically purged");

    println!(
        "\nreading: the segmented index keeps query latency flat under \
         ingest because readers never wait on a merge — a commit seals the \
         memtable into an immutable segment and publishes a fresh snapshot \
         with one pointer swap; the paper's \"documents are available for \
         querying the moment they are stored\" holds without a reader/writer \
         convoy."
    );
    assert!(
        p99_ratio >= 5.0,
        "acceptance: segmented p99 under ingest must be >= 5x below the \
         write-locked baseline (got {p99_ratio:.1}x)"
    );
}
