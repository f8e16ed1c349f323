//! FIG9 — the query read-path overhaul: result cache, parallel term
//! fan-out, and per-stage tracing.
//!
//! Not a figure from the paper: this measures the reproduction's own
//! QueryEngine against the serial single-shot read path it replaced.
//! Three configurations answer the same query mix over the same corpus:
//!
//! - **serial**  — workers=0, cache=0: the old `Searcher`
//!   behaviour (every query re-executes everything, single-threaded);
//! - **cold**    — the engine with its term fan-out but the result cache
//!   bypassed (`execute_uncached`);
//! - **cached**  — the full read path (`NetMark::query`), repeated
//!   queries served from the generation-stamped result cache.
//!
//! `FIG9_DOCS` overrides the corpus size (CI smoke runs use a small one).

use netmark::{NetMark, NetMarkOptions, QueryEngineOptions, XdbQuery};
use netmark_bench::{banner, fmt_dur, median_of, TableWriter, TempDir};
use netmark_corpus::{mixed, CorpusConfig, RawDoc};

fn load_with(dir: &std::path::Path, docs: &[RawDoc], query: QueryEngineOptions) -> NetMark {
    let nm = NetMark::open_with(
        dir,
        NetMarkOptions {
            query,
            ..NetMarkOptions::default()
        },
    )
    .expect("open netmark");
    for d in docs {
        nm.insert_file(&d.name, &d.content).expect("ingest");
    }
    nm
}

fn main() {
    banner(
        "FIG9",
        "query read-path: cache, parallel fan-out, per-stage tracing",
        "a long-lived QueryEngine answers repeated queries from a \
         generation-stamped cache and fans multi-term content queries \
         on scatter workers; per-stage timings are exported via \
         GET /xdb/stats",
    );
    let n: usize = std::env::var("FIG9_DOCS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1500);
    let docs = mixed(&CorpusConfig::sized(n));
    println!("corpus: {n} documents\n");

    let serial_opts = QueryEngineOptions {
        workers: 0,
        cache_capacity: 0,
        ..QueryEngineOptions::default()
    };
    let scratch_a = TempDir::new("fig9-serial");
    let nm_serial = load_with(scratch_a.path(), &docs, serial_opts);
    let scratch_b = TempDir::new("fig9-engine");
    let nm = load_with(scratch_b.path(), &docs, QueryEngineOptions::default());

    let queries: Vec<(&str, XdbQuery)> = vec![
        ("Content=shuttle", XdbQuery::content("shuttle")),
        ("Content=budget cost", XdbQuery::content("budget cost")),
        (
            "Content=shuttle engine telemetry",
            XdbQuery::content("shuttle engine telemetry"),
        ),
        (
            "Context=Budget & Content=funding",
            XdbQuery::context_content("Budget", "funding"),
        ),
    ];

    let mut t = TableWriter::new(&[
        "query",
        "hits",
        "serial cold",
        "engine cold",
        "cold speedup",
        "cached",
        "hit speedup",
    ]);
    let mut ratio_multi_term = 0.0f64;
    for (label, q) in &queries {
        let (rs_serial, serial) =
            median_of(7, || nm_serial.engine().execute_uncached(q).expect("query"));
        let (rs_cold, cold) = median_of(7, || nm.engine().execute_uncached(q).expect("query"));
        assert_eq!(
            rs_serial.hits, rs_cold.hits,
            "parallel engine must agree with the serial baseline"
        );
        // Warm the cache once, then measure the hit path.
        nm.query(q).expect("warm");
        let (rs_hit, hit) = median_of(9, || nm.query(q).expect("query"));
        assert_eq!(rs_cold.hits, rs_hit.hits, "cache must be transparent");
        let cold_speedup = serial.as_secs_f64() / cold.as_secs_f64().max(1e-9);
        let hit_speedup = cold.as_secs_f64() / hit.as_secs_f64().max(1e-9);
        if label.contains("telemetry") {
            ratio_multi_term = hit_speedup;
        }
        t.row(&[
            label.to_string(),
            rs_cold.len().to_string(),
            fmt_dur(serial),
            fmt_dur(cold),
            format!("{cold_speedup:.1}x"),
            fmt_dur(hit),
            format!("{hit_speedup:.1}x"),
        ]);
    }
    t.print();

    // The same counters any client can scrape from GET /xdb/stats.
    let s = nm.query_stats();
    println!("\nper-stage totals (engine configuration, all queries above):");
    let mut st = TableWriter::new(&["stage", "cumulative", "share"]);
    let total = s.total_time.as_secs_f64().max(1e-9);
    for (stage, d) in [
        ("index lookup", s.index_time),
        ("context walk", s.walk_time),
        ("intersection", s.intersect_time),
        ("content collect", s.collect_time),
    ] {
        st.row(&[
            stage.to_string(),
            fmt_dur(d),
            format!("{:.0}%", 100.0 * d.as_secs_f64() / total),
        ]);
    }
    st.print();
    println!(
        "queries={} cache hits={} misses={} parallel={}",
        s.queries, s.cache_hits, s.cache_misses, s.parallel_queries
    );
    println!(
        "\nreading: repeated queries are answered from the result cache at \
         memory-lookup latency (invalidated by ingest via the store \
         generation + engine epoch stamps); cold multi-term content \
         queries fan per-term index probes out on scatter workers."
    );
    assert!(
        ratio_multi_term >= 10.0,
        "acceptance: cache-hit latency must be >= 10x below cold execution \
         for the multi-term query (got {ratio_multi_term:.1}x)"
    );
}
