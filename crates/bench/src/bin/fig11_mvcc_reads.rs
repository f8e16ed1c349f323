//! FIG11 — MVCC snapshot reads for relstore: single writer, snapshot
//! readers end-to-end.
//!
//! Not a figure from the paper: this measures the reproduction's own
//! storage substrate. Three phases:
//!
//! 1. **Query p99 under streaming ingest** — reader threads execute a
//!    query mix (cache bypassed, so every query walks the store) while a
//!    writer streams `insert_file` batches continuously. Three sides:
//!    *idle* (no writer, the floor), *MVCC* (each query pins a versioned
//!    read view and never takes a page lock), and *locked baseline* (each
//!    query first acquires the database write lock, the pre-MVCC
//!    discipline where readers wait out every commit). Acceptance: MVCC
//!    p99 under ingest stays within 2x of the idle p99.
//! 2. **Byte-identical results** — at quiesce, every query's serialized
//!    XML from the concurrent engine must equal a fresh serial engine
//!    (workers=0) over a store built by the same ingest sequence with no
//!    concurrent readers.
//! 3. **View hygiene** — after the storm, `live_views` is zero: every
//!    query released its pin.
//!
//! `FIG11_DOCS` overrides the corpus size and `FIG11_SECS` the phase-1
//! measurement window (CI smoke runs use small values).

use netmark::{NetMark, NetMarkOptions, QueryEngineOptions, XdbQuery};
use netmark_bench::{banner, fmt_dur, percentile, TableWriter, TempDir};
use netmark_corpus::{mixed, CorpusConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

fn query_mix() -> Vec<XdbQuery> {
    vec![
        XdbQuery::content("shuttle"),
        XdbQuery::content("budget cost"),
        XdbQuery::content("shuttle engine telemetry"),
        XdbQuery::context_content("Budget", "funding"),
    ]
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

/// Stream small filler documents until `deadline`, recording the exact
/// ingest order for the serial reference replay.
///
/// The filler vocabulary is disjoint from the query mix, so streaming
/// exercises the full commit machinery — WAL, copy-on-write overlays,
/// version publication, checkpoints — without growing the measured
/// queries' result sets: any p99 movement is concurrency, not data
/// volume. The short sleep keeps the writer's duty cycle low so the
/// figure isolates locking behaviour, not scheduler oversubscription.
fn stream_ingest(
    nm: &NetMark,
    tag: &str,
    deadline: Instant,
    ledger: &Mutex<Vec<(String, String)>>,
) {
    let mut i = 0usize;
    while Instant::now() < deadline {
        let name = format!("stream-{tag}-{i}.txt");
        let content = format!("# Filler\nzephyr quartz marl gneiss batch {i}\n");
        nm.insert_file(&name, &content).expect("stream ingest");
        ledger.lock().unwrap().push((name, content));
        i += 1;
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn main() {
    banner(
        "FIG11",
        "MVCC snapshot reads: single writer, snapshot readers",
        "every query pins one versioned read view (copy-on-write pages \
         published at commit) and never takes a page lock; checkpoints \
         wait out laggard views up to max_view_lag, then evict them",
    );
    let n: usize = std::env::var("FIG11_DOCS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(800);
    let secs: u64 = std::env::var("FIG11_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    // Snapshot reads buy wall-clock only when readers have cores to run
    // on: with the writer pinned to one, give the readers the rest (at
    // least one — on a single-core box the figure degrades to measuring
    // writer interference, which is still the acceptance criterion).
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let readers = (cores.saturating_sub(1)).clamp(1, 4);
    let window = Duration::from_secs(secs);
    println!("corpus: {n} documents, {readers} readers ({cores} cores), {secs}s/side\n");

    let docs = mixed(&CorpusConfig::sized(n));
    let scratch = TempDir::new("fig11");
    // Cache off: it is generation-stamped, so an idle engine keeps it
    // warm while a streaming engine has it invalidated by every commit —
    // leaving it on would fold cache warmth into a figure that is about
    // locking. Cold execution both sides.
    let nm = NetMark::open_with(
        scratch.path(),
        NetMarkOptions {
            query: QueryEngineOptions {
                cache_capacity: 0,
                ..QueryEngineOptions::default()
            },
            ..NetMarkOptions::default()
        },
    )
    .expect("open netmark");
    let ledger = Mutex::new(Vec::new());
    for d in &docs {
        nm.insert_file(&d.name, &d.content).expect("ingest");
        ledger
            .lock()
            .unwrap()
            .push((d.name.clone(), d.content.clone()));
    }
    // ---- Phase 1: query p99 idle vs under streaming ingest --------------
    let mut idle = hammer(
        readers,
        || std::thread::sleep(window),
        |q| nm.engine().execute_uncached(q).expect("query").len(),
    );

    let mut mvcc = {
        let deadline = Instant::now() + window;
        hammer(
            readers,
            || stream_ingest(&nm, "mvcc", deadline, &ledger),
            |q| nm.engine().execute_uncached(q).expect("query").len(),
        )
    };

    // Locked baseline: the pre-MVCC read discipline — a query first takes
    // the database write lock, so it waits out (and is waited out by)
    // every streaming commit, and concurrent queries convoy behind each
    // other.
    let db = nm.store().database();
    let mut locked = {
        let deadline = Instant::now() + window;
        hammer(
            readers,
            || stream_ingest(&nm, "locked", deadline, &ledger),
            |q| {
                let _lock = db.begin();
                nm.engine().execute_uncached(q).expect("query").len()
            },
        )
    };

    let (ip50, ip99) = (percentile(&mut idle, 0.50), percentile(&mut idle, 0.99));
    let (mp50, mp99) = (percentile(&mut mvcc, 0.50), percentile(&mut mvcc, 0.99));
    let (lp50, lp99) = (percentile(&mut locked, 0.50), percentile(&mut locked, 0.99));
    let mut t = TableWriter::new(&["read path", "writer", "queries", "p50", "p99"]);
    t.row(&[
        "MVCC views".into(),
        "idle".into(),
        idle.len().to_string(),
        fmt_dur(ip50),
        fmt_dur(ip99),
    ]);
    t.row(&[
        "MVCC views".into(),
        "streaming".into(),
        mvcc.len().to_string(),
        fmt_dur(mp50),
        fmt_dur(mp99),
    ]);
    t.row(&[
        "write-locked".into(),
        "streaming".into(),
        locked.len().to_string(),
        fmt_dur(lp50),
        fmt_dur(lp99),
    ]);
    t.print();
    let ingest_ratio = mp99.as_secs_f64() / ip99.as_secs_f64().max(1e-9);
    let locked_ratio = lp99.as_secs_f64() / mp99.as_secs_f64().max(1e-9);
    println!(
        "p99 under ingest: {ingest_ratio:.2}x idle; locked baseline p99: \
         {locked_ratio:.1}x the MVCC path\n"
    );

    // ---- Phase 2: byte-identical to a serial reference ------------------
    // Replay the exact ingest order (initial corpus + both streams) into a
    // fresh store and answer with the serial engine: no fan-out, no
    // cache, no concurrent anything.
    let serial_scratch = TempDir::new("fig11-serial");
    let nm_serial = NetMark::open_with(
        serial_scratch.path(),
        NetMarkOptions {
            query: QueryEngineOptions {
                workers: 0,
                cache_capacity: 0,
                ..QueryEngineOptions::default()
            },
            ..NetMarkOptions::default()
        },
    )
    .expect("open serial reference");
    let replay = ledger.into_inner().unwrap();
    for (name, content) in &replay {
        nm_serial.insert_file(name, content).expect("replay ingest");
    }
    for q in &query_mix() {
        let concurrent = nm.engine().execute_uncached(q).expect("query").to_xml();
        let serial = nm_serial
            .engine()
            .execute_uncached(q)
            .expect("query")
            .to_xml();
        assert_eq!(
            concurrent, serial,
            "acceptance: results must be byte-identical to serial execution"
        );
    }
    println!(
        "identical results: {} query shapes byte-identical to the serial \
         reference across {} documents",
        query_mix().len(),
        replay.len()
    );

    // ---- Phase 3: view hygiene ------------------------------------------
    let m = db.mvcc_stats();
    println!("\n{}", m.to_node().to_xml());
    assert_eq!(m.live_views, 0, "every query released its view pin");

    println!(
        "\nreading: the relstore write path publishes copy-on-write page \
         overlays at commit by swapping one snapshot pointer, so a query \
         pins one committed version and reads it without page locks; the \
         streaming writer neither blocks readers nor is blocked by them, \
         while the locked baseline convoys every query behind every commit."
    );
    assert!(
        ingest_ratio <= 2.0,
        "acceptance: MVCC query p99 under streaming ingest must stay \
         within 2x of the idle p99 (got {ingest_ratio:.2}x)"
    );
}
