//! The per-layer split of a traced run: span self times per request plus
//! deltas of the program's own public counters over the traced phase.

use crate::harness::Sample;
use crate::stats::{delta, mean, percentile, ratio, self_time, Metric};
use crate::trace::{Span, Tracer};
use netmark::{IndexStats, IngestStats, NetMark, PipelineStats, QueryStats, XdbQuery};
use netmark_netserve::{FrontendStats, FrontendStatsSnapshot};
use netmark_relstore::{MvccStats, WalStats};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Every per-layer metric, with its unit. A traced run reports all of them
/// (0 where a workload does not exercise the layer).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.query_p50_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.accounted_ratio", "ratio"),
    ("netserve.wait_ms_p50", "ms"),
    ("netserve.wait_ms", "ms"),
    ("netserve.io_ms", "ms"),
    ("netserve.sheds", "count"),
    ("netserve.deadline_overruns", "count"),
    ("netserve.parked_peak", "count"),
    ("webdav.handler_ms", "ms"),
    ("xdb.parse_us", "us"),
    ("xdb.render_us", "us"),
    ("xdb.response_bytes", "bytes"),
    ("engine.run_ms", "ms"),
    ("engine.index_ms", "ms"),
    ("engine.walk_ms", "ms"),
    ("engine.intersect_ms", "ms"),
    ("engine.collect_ms", "ms"),
    ("engine.unattributed_ms", "ms"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.memo_hit_ratio", "ratio"),
    ("engine.candidates_per_query", "count"),
    ("engine.candidates_per_hit", "ratio"),
    ("store.reconstruct_ms", "ms"),
    ("relstore.pool_hit_ratio", "ratio"),
    ("relstore.pool_misses_per_query", "count"),
    ("relstore.pool_evictions", "count"),
    ("relstore.fsyncs_per_commit", "ratio"),
    ("relstore.mvcc_publishes", "count"),
    ("relstore.overlay_bytes_peak", "bytes"),
    ("relstore.views_evicted", "count"),
    ("textindex.segments_end", "count"),
    ("textindex.compactions", "count"),
    ("textindex.segments_merged", "count"),
    ("textindex.bytes_per_posting", "bytes"),
    ("docformats.upmark_ms_per_doc", "ms"),
    ("pipeline.store_ms_per_doc", "ms"),
    ("pipeline.index_ms_per_doc", "ms"),
    ("pipeline.batch_docs_mean", "count"),
    ("pipeline.queue_depth_max", "count"),
    ("pipeline.ingest_call_ms", "ms"),
    ("pipeline.ingest_docs_per_s", "1/s"),
    ("federation.source_ms_p50.plain", "ms"),
    ("federation.source_ms_p50.sharded", "ms"),
    ("federation.source_ms_p50.llis", "ms"),
    ("federation.sources_ms", "ms"),
    ("federation.router_ms", "ms"),
    ("federation.source_failures", "count"),
    ("federation.breaker_opens", "count"),
    ("shard.queries.0", "count"),
    ("shard.queries.1", "count"),
];

/// Cumulative counters of a set of stores and one front end.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub query: QueryStats,
    /// Buffer pool (hits, misses, evictions).
    pub pool: (u64, u64, u64),
    pub wal: WalStats,
    pub mvcc: MvccStats,
    pub index: IndexStats,
    pub fe: FrontendStatsSnapshot,
    /// Router per-source (failures, breaker opens), summed.
    pub sources: (u64, u64),
}

impl Counters {
    pub fn read(stores: &[&NetMark], fe: FrontendStatsSnapshot) -> Counters {
        let mut c = Counters {
            fe,
            ..Default::default()
        };
        for nm in stores {
            c.query.merge(&nm.query_stats());
            let db = nm.store().database();
            let p = db.pool_stats();
            c.pool = (
                c.pool.0 + p.hits,
                c.pool.1 + p.misses,
                c.pool.2 + p.evictions,
            );
            let w = nm.wal_stats();
            c.wal.commits += w.commits;
            c.wal.syncs += w.syncs;
            c.mvcc.merge(&db.mvcc_stats());
            c.index.merge(&nm.text_index().stats());
        }
        c
    }
}

/// Samples gauges while the traced phase runs: parked connections and
/// copy-on-write overlay bytes.
pub struct Monitor {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<(u64, u64)>,
}

impl Monitor {
    pub fn start(stores: Vec<Arc<NetMark>>, fe: Arc<FrontendStats>) -> Monitor {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let (mut parked, mut overlay) = (0, 0);
            while !flag.load(Ordering::Acquire) {
                parked = parked.max(fe.snapshot().parked);
                let bytes: u64 = stores
                    .iter()
                    .map(|nm| nm.store().database().mvcc_stats().overlay_bytes)
                    .sum();
                overlay = overlay.max(bytes);
                std::thread::sleep(Duration::from_millis(10));
            }
            (parked, overlay)
        });
        Monitor { stop, handle }
    }

    /// Stops sampling; returns the peaks (parked, overlay bytes).
    pub fn stop(self) -> (u64, u64) {
        self.stop.store(true, Ordering::Release);
        self.handle.join().expect("monitor thread panicked")
    }
}

pub struct LayerInput<'a> {
    pub untraced: &'a [Sample],
    pub traced: &'a [Sample],
    pub tracer: &'a Tracer,
    pub before: &'a Counters,
    pub after: &'a Counters,
    /// (parked connections, overlay bytes) peaks.
    pub peaks: (u64, u64),
    /// Pipeline runs whose stages the ingest metrics describe.
    pub ingest_runs: &'a [PipelineStats],
    /// Queries routed to each shard during the traced phase.
    pub shard_queries: &'a [u64],
    /// Handler self time is router time (federated server).
    pub federated: bool,
}

fn dur(s: &Span) -> f64 {
    s.end - s.start
}

fn p50(samples: &[Sample]) -> f64 {
    let mut v: Vec<f64> = samples
        .iter()
        .filter(|s| s.status == 200)
        .map(Sample::ms)
        .collect();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Sums the ingest stages of several pipeline runs.
fn ingest_sum(runs: &[PipelineStats]) -> IngestStats {
    let mut t = IngestStats::default();
    for r in runs {
        let s = r.ingest;
        t.documents += s.documents;
        t.nodes += s.nodes;
        t.batches += s.batches;
        t.errors += s.errors;
        t.max_queue_depth = t.max_queue_depth.max(s.max_queue_depth);
        t.upmark_time += s.upmark_time;
        t.store_time += s.store_time;
        t.index_time += s.index_time;
    }
    t
}

pub fn per_layer(inp: &LayerInput<'_>) -> BTreeMap<String, Metric> {
    let mut v: HashMap<&'static str, f64> = HashMap::new();
    let spans = inp.tracer.spans();
    let mut by_req: HashMap<u64, Vec<&Span>> = HashMap::new();
    let mut sources: Vec<&Span> = Vec::new();
    for s in &spans {
        if s.name.starts_with("source.") {
            sources.push(s);
        } else {
            by_req.entry(s.req).or_default().push(s);
        }
    }

    // Per-request split of the client-observed latency.
    let ok: Vec<&Sample> = inp.traced.iter().filter(|s| s.status == 200).collect();
    let mut parts: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut waits = Vec::new();
    let mut client = Vec::new();
    for s in &ok {
        let mine = by_req.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
        let one = |name: &str| mine.iter().find(|x| x.name == name).copied();
        let span = |x: Option<&Span>| x.map(|x| (x.start, x.end));
        let (serve, handler) = (one("serve"), one("handler"));
        let inner: Vec<&Span> = mine
            .iter()
            .copied()
            .filter(|x| {
                matches!(
                    x.name.as_str(),
                    "xdb.parse" | "xdb.render" | "engine" | "store.reconstruct"
                )
            })
            .collect();
        // Federation spans are matched by containment in the handler and by
        // the query's content terms.
        let content = s
            .path
            .strip_prefix("/xdb?")
            .and_then(|qs| XdbQuery::from_url(qs).ok())
            .and_then(|q| q.content);
        let fed: Vec<(f64, f64)> = match handler {
            Some(h) => sources
                .iter()
                .filter(|x| {
                    x.start >= h.start && x.end <= h.end && (x.key.is_none() || x.key == content)
                })
                .map(|x| (x.start, x.end))
                .collect(),
            None => Vec::new(),
        };
        let wait = self_time(s.start, s.end, &span(serve).into_iter().collect::<Vec<_>>());
        waits.push(wait);
        client.push(s.ms());
        let mut push = |k: &'static str, x: f64| parts.entry(k).or_default().push(x);
        push("netserve.wait_ms", wait);
        if let Some(sv) = serve {
            push(
                "netserve.io_ms",
                self_time(
                    sv.start,
                    sv.end,
                    &span(handler).into_iter().collect::<Vec<_>>(),
                ),
            );
        }
        if let Some(h) = handler {
            let mut kids: Vec<(f64, f64)> = inner.iter().map(|x| (x.start, x.end)).collect();
            kids.extend(&fed);
            let own = self_time(h.start, h.end, &kids);
            push(
                if inp.federated {
                    "federation.router_ms"
                } else {
                    "webdav.handler_ms"
                },
                own,
            );
        }
        for x in &inner {
            match x.name.as_str() {
                "xdb.parse" => push("xdb.parse", dur(x)),
                "xdb.render" => push("xdb.render", dur(x)),
                "engine" => push("engine.run_ms", dur(x)),
                _ => push("store.reconstruct_ms", dur(x)),
            }
        }
        if !fed.is_empty() {
            let (lo, hi) = fed.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &(a, b)| {
                (lo.min(a), hi.max(b))
            });
            push("federation.sources_ms", (hi - lo) - self_time(lo, hi, &fed));
        }
        push("xdb.response_bytes", s.bytes as f64);
    }
    let n = ok.len().max(1) as f64;
    // Layer self times are means per request, so they add up to the mean
    // client latency.
    let per_req = |k: &str| parts.get(k).map_or(0.0, |x| x.iter().sum::<f64>() / n);
    let layer_ms = [
        "netserve.wait_ms",
        "netserve.io_ms",
        "webdav.handler_ms",
        "federation.router_ms",
        "federation.sources_ms",
    ];
    let accounted: f64 = layer_ms
        .iter()
        .chain(&[
            "xdb.parse",
            "xdb.render",
            "engine.run_ms",
            "store.reconstruct_ms",
        ])
        .map(|k| per_req(k))
        .sum();
    for k in layer_ms {
        v.insert(k, per_req(k));
    }
    v.insert("trace.accounted_ratio", ratio(accounted, mean(&client)));
    waits.sort_by(f64::total_cmp);
    v.insert("netserve.wait_ms_p50", percentile(&waits, 50.0));
    v.insert(
        "xdb.parse_us",
        mean(parts.get("xdb.parse").map_or(&[][..], Vec::as_slice)) * 1e3,
    );
    v.insert(
        "xdb.render_us",
        mean(parts.get("xdb.render").map_or(&[][..], Vec::as_slice)) * 1e3,
    );
    v.insert("xdb.response_bytes", per_req("xdb.response_bytes"));
    v.insert(
        "store.reconstruct_ms",
        mean(
            parts
                .get("store.reconstruct_ms")
                .map_or(&[][..], Vec::as_slice),
        ),
    );
    let traced_p50 = p50(inp.traced);
    v.insert("trace.query_p50_ms", traced_p50);
    v.insert("trace.overhead_ms", traced_p50 - p50(inp.untraced));

    // Engine: stage split per executed query.
    let (b, a) = (inp.before, inp.after);
    let q = a.query.since(&b.query);
    let records = inp.tracer.engine_records();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    if !records.is_empty() {
        let runs: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "engine")
            .map(dur)
            .collect();
        let stage = |f: &dyn Fn(&netmark::QueryTrace) -> Duration| {
            mean(&records.iter().map(|r| ms(f(&r.trace))).collect::<Vec<_>>())
        };
        let run = mean(&runs);
        let (ix, wk, is, co) = (
            stage(&|t| t.index_lookup),
            stage(&|t| t.context_walk),
            stage(&|t| t.intersection),
            stage(&|t| t.collection),
        );
        v.insert("engine.run_ms", run);
        v.insert("engine.index_ms", ix);
        v.insert("engine.walk_ms", wk);
        v.insert("engine.intersect_ms", is);
        v.insert("engine.collect_ms", co);
        v.insert("engine.unattributed_ms", run - (ix + wk + is + co));
        let cold_hits: usize = records
            .iter()
            .filter(|r| !r.trace.cache_hit)
            .map(|r| r.hits)
            .sum();
        v.insert(
            "engine.candidates_per_hit",
            ratio(q.candidates as f64, cold_hits as f64),
        );
    } else if q.queries > 0 {
        // Engines behind remote peers: the same split from their counters.
        let per = |d: Duration| ms(d) / q.queries as f64;
        let run = per(q.total_time);
        let stages = [q.index_time, q.walk_time, q.intersect_time, q.collect_time].map(per);
        v.insert("engine.run_ms", run);
        v.insert("engine.index_ms", stages[0]);
        v.insert("engine.walk_ms", stages[1]);
        v.insert("engine.intersect_ms", stages[2]);
        v.insert("engine.collect_ms", stages[3]);
        v.insert("engine.unattributed_ms", run - stages.iter().sum::<f64>());
    }
    v.insert("engine.cache_hit_ratio", q.cache_hit_rate());
    v.insert(
        "engine.memo_hit_ratio",
        ratio(q.memo_hits as f64, (q.memo_hits + q.memo_misses) as f64),
    );
    v.insert(
        "engine.candidates_per_query",
        ratio(q.candidates as f64, q.cache_misses as f64),
    );

    // Front end.
    v.insert("netserve.sheds", delta(a.fe.sheds, b.fe.sheds) as f64);
    v.insert(
        "netserve.deadline_overruns",
        delta(a.fe.deadline_overruns, b.fe.deadline_overruns) as f64,
    );
    v.insert("netserve.parked_peak", inp.peaks.0 as f64);

    // Storage engine.
    let (hits, misses, evictions) = (
        delta(a.pool.0, b.pool.0),
        delta(a.pool.1, b.pool.1),
        delta(a.pool.2, b.pool.2),
    );
    v.insert(
        "relstore.pool_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    v.insert("relstore.pool_misses_per_query", misses as f64 / n);
    v.insert("relstore.pool_evictions", evictions as f64);
    let commits = delta(a.wal.commits, b.wal.commits);
    v.insert(
        "relstore.fsyncs_per_commit",
        ratio(delta(a.wal.syncs, b.wal.syncs) as f64, commits as f64),
    );
    v.insert(
        "relstore.mvcc_publishes",
        delta(a.mvcc.publishes, b.mvcc.publishes) as f64,
    );
    v.insert("relstore.overlay_bytes_peak", inp.peaks.1 as f64);
    v.insert(
        "relstore.views_evicted",
        delta(a.mvcc.views_evicted, b.mvcc.views_evicted) as f64,
    );

    // Text index.
    v.insert("textindex.segments_end", a.index.segments as f64);
    v.insert(
        "textindex.compactions",
        delta(a.index.compactions, b.index.compactions) as f64,
    );
    v.insert(
        "textindex.segments_merged",
        delta(a.index.segments_merged, b.index.segments_merged) as f64,
    );
    v.insert(
        "textindex.bytes_per_posting",
        ratio(a.index.bytes as f64, a.index.postings as f64),
    );

    // Upmark and the staged ingest pipeline.
    let ing = ingest_sum(inp.ingest_runs);
    let per_doc = |d: Duration| ratio(ms(d), ing.documents as f64);
    v.insert("docformats.upmark_ms_per_doc", per_doc(ing.upmark_time));
    v.insert("pipeline.store_ms_per_doc", per_doc(ing.store_time));
    v.insert("pipeline.index_ms_per_doc", per_doc(ing.index_time));
    v.insert("pipeline.batch_docs_mean", ing.mean_batch_size());
    v.insert("pipeline.queue_depth_max", ing.max_queue_depth as f64);
    v.insert(
        "pipeline.ingest_docs_per_s",
        crate::harness::ingest_rate(inp.ingest_runs),
    );
    v.insert(
        "pipeline.ingest_call_ms",
        mean(
            &spans
                .iter()
                .filter(|s| s.name == "store.ingest")
                .map(dur)
                .collect::<Vec<_>>(),
        ),
    );

    // Federation and shards.
    for name in ["plain", "sharded", "llis"] {
        let span_name = format!("source.{name}");
        let mut d: Vec<f64> = sources
            .iter()
            .filter(|s| s.name == span_name && s.key.is_some())
            .map(|s| dur(s))
            .collect();
        d.sort_by(f64::total_cmp);
        let key: &'static str = match name {
            "plain" => "federation.source_ms_p50.plain",
            "sharded" => "federation.source_ms_p50.sharded",
            _ => "federation.source_ms_p50.llis",
        };
        v.insert(key, percentile(&d, 50.0));
    }
    v.insert(
        "federation.source_failures",
        delta(a.sources.0, b.sources.0) as f64,
    );
    v.insert(
        "federation.breaker_opens",
        delta(a.sources.1, b.sources.1) as f64,
    );
    for (i, key) in ["shard.queries.0", "shard.queries.1"]
        .into_iter()
        .enumerate()
    {
        v.insert(key, inp.shard_queries.get(i).copied().unwrap_or(0) as f64);
    }

    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            (
                name.to_string(),
                Metric {
                    value: v.get(name).copied().unwrap_or(0.0),
                    unit,
                },
            )
        })
        .collect()
}
