//! FIG8 — Fig 8: "Highly scalable and flexible integration".
//!
//! The figure shows applications fanning out through thin routers to many
//! data sources. Measured here:
//! - federated query latency as the source count grows (parallel fan-out);
//! - the augmentation overhead for capability-limited (content-only)
//!   sources vs full NETMARK peers;
//! - graceful degradation with 25% of sources down;
//! - real-socket federation: XDB-over-HTTP peers behind `RemoteSource`
//!   adapters, with per-source wire latency.

use netmark::{NetMark, XdbQuery};
use netmark_bench::{banner, fmt_dur, median_of, TableWriter, TempDir};
use netmark_corpus::{lessons_learned, task_plans, CorpusConfig};
use netmark_federation::{
    ContentOnlySource, FlakySource, NetmarkSource, RemoteConfig, RemoteSource, Router,
};
use std::sync::Arc;

const DOCS_PER_SOURCE: usize = 40;

fn build(
    scratch: &TempDir,
    n_sources: usize,
    content_only_fraction: f64,
    down_fraction: f64,
    lessons_everywhere: bool,
) -> Router {
    let mut router = Router::new();
    let n_content_only = (n_sources as f64 * content_only_fraction) as usize;
    let n_down = (n_sources as f64 * down_fraction) as usize;
    for s in 0..n_sources {
        let name = format!("src{s:02}");
        if s < n_content_only {
            let docs = lessons_learned(&CorpusConfig::sized(DOCS_PER_SOURCE).with_seed(s as u64));
            let adapter = ContentOnlySource::new(
                &name,
                docs.into_iter().map(|d| (d.name, d.content)).collect(),
            );
            if s < n_down {
                router
                    .register_source(Arc::new(FlakySource::down(adapter)))
                    .expect("register");
            } else {
                router.register_source(Arc::new(adapter)).expect("register");
            }
        } else {
            let nm =
                Arc::new(NetMark::open(&scratch.join(&format!("peer{s}"))).expect("open peer"));
            let docs = if lessons_everywhere {
                lessons_learned(&CorpusConfig::sized(DOCS_PER_SOURCE).with_seed(s as u64))
            } else {
                task_plans(&CorpusConfig::sized(DOCS_PER_SOURCE).with_seed(s as u64))
            };
            for d in docs {
                nm.insert_file(&d.name, &d.content).expect("ingest");
            }
            let adapter = NetmarkSource::new(&name, nm);
            if s < n_down {
                router
                    .register_source(Arc::new(FlakySource::down(adapter)))
                    .expect("register");
            } else {
                router.register_source(Arc::new(adapter)).expect("register");
            }
        }
    }
    let names: Vec<String> = (0..n_sources).map(|s| format!("src{s:02}")).collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    router.define_databank("app", &refs).expect("bank");
    router
}

/// N live webdav servers fronted by `RemoteSource` adapters — federation
/// over real sockets rather than in-process trait objects.
fn remote_fleet(scratch: &TempDir, n: usize) -> (Vec<netmark_webdav::ServerHandle>, Router) {
    let mut servers = Vec::new();
    let mut router = Router::new();
    for s in 0..n {
        let nm = Arc::new(NetMark::open(&scratch.join(&format!("net{s}"))).expect("open peer"));
        for d in task_plans(&CorpusConfig::sized(DOCS_PER_SOURCE).with_seed(100 + s as u64)) {
            nm.insert_file(&d.name, &d.content).expect("ingest");
        }
        let server = netmark_webdav::serve(nm, "127.0.0.1:0").expect("serve");
        let name = format!("net{s:02}");
        let src = RemoteSource::connect(&name, &server.addr().to_string(), RemoteConfig::default())
            .expect("negotiate");
        router.register_source(Arc::new(src)).expect("register");
        servers.push(server);
    }
    let names: Vec<String> = (0..n).map(|s| format!("net{s:02}")).collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    router.define_databank("net", &refs).expect("bank");
    (servers, router)
}

fn main() {
    banner(
        "FIG8",
        "Fig 8 — highly scalable and flexible integration",
        "arbitrary numbers of sources compose into applications; queries \
         fan out simultaneously; weak sources are augmented; failures \
         degrade, not break",
    );

    // Sweep 1: all-full-capability sources, growing fan-out.
    let mut t = TableWriter::new(&["sources", "hits", "median latency", "latency/source"]);
    for &n in &[1usize, 4, 16, 32] {
        let scratch = TempDir::new("fig8");
        let router = build(&scratch, n, 0.0, 0.0, false);
        let q = XdbQuery::context("Budget");
        let (fr, lat) = median_of(5, || router.query("app", &q).expect("query"));
        t.row(&[
            n.to_string(),
            fr.results.len().to_string(),
            fmt_dur(lat),
            fmt_dur(lat / n as u32),
        ]);
    }
    println!("\n-- fan-out scaling (full-capability sources)");
    t.print();

    // Sweep 2: augmentation overhead — half the sources content-only.
    let mut t = TableWriter::new(&[
        "mix",
        "hits",
        "augmented sources",
        "docs fetched",
        "median latency",
    ]);
    for &(label, frac) in &[("0% content-only", 0.0), ("50% content-only", 0.5)] {
        let scratch = TempDir::new("fig8-aug");
        // Same corpus on every source, so the only variable is capability.
        let router = build(&scratch, 8, frac, 0.0, true);
        let q = XdbQuery::context_content("Summary", "engine");
        let (fr, lat) = median_of(5, || router.query("app", &q).expect("query"));
        let augmented = fr.outcomes.iter().filter(|o| o.augmented).count();
        let fetched: usize = fr.outcomes.iter().map(|o| o.documents_fetched).sum();
        t.row(&[
            label.to_string(),
            fr.results.len().to_string(),
            augmented.to_string(),
            fetched.to_string(),
            fmt_dur(lat),
        ]);
    }
    println!("\n-- capability augmentation (Context+Content over weak sources)");
    t.print();

    // Sweep 3: graceful degradation.
    let scratch = TempDir::new("fig8-down");
    let router = build(&scratch, 8, 0.0, 0.25, false);
    let q = XdbQuery::context("Budget");
    let (fr, lat) = median_of(5, || router.query("app", &q).expect("query"));
    let failed = fr.outcomes.iter().filter(|o| o.error.is_some()).count();
    println!(
        "\n-- failure injection: 8 sources, {failed} down → {} hits from the \
         remaining {} sources in {} (degraded={}, query still answers)",
        fr.results.len(),
        8 - failed,
        fmt_dur(lat),
        fr.degraded()
    );
    // Sweep 4: real sockets — capability-negotiated XDB-over-HTTP peers.
    let scratch = TempDir::new("fig8-net");
    let (servers, router) = remote_fleet(&scratch, 3);
    let q = XdbQuery::context("Budget");
    let (fr, lat) = median_of(9, || router.query("net", &q).expect("query"));
    println!(
        "\n-- real sockets: 3 XDB-over-HTTP peers → {} hits, median {}",
        fr.results.len(),
        fmt_dur(lat)
    );
    let mut t = TableWriter::new(&["source", "hits", "wire latency"]);
    for o in &fr.outcomes {
        t.row(&[o.source.clone(), o.hits.to_string(), fmt_dur(o.latency)]);
    }
    t.print();
    for s in servers {
        s.stop();
    }

    println!(
        "\nreading: fan-out latency grows far slower than source count \
         (parallel dispatch — 'simultaneous querying'); augmentation buys \
         full query power over content-only sources for a bounded fetch \
         overhead; downed sources cost their answers, never the query; the \
         same holds over real sockets."
    );
}
