//! Per-stage ingest instrumentation.
//!
//! Every ingest path — single [`crate::NetMark::insert_file`] calls, batch
//! ingest, and the staged pipeline — feeds the same [`IngestMetrics`]
//! counters, so `NetMark::stats()` always reflects cumulative ingest work:
//! documents and nodes written, batch count, and wall time split across the
//! three stages (upmark parsing, store transaction, text indexing).
//!
//! The counters are atomics: recording from pipeline worker threads never
//! takes a lock, and reading via [`IngestMetrics::snapshot`] never blocks
//! an ingest.
//!
//! [`SourceMetrics`] is the query-side sibling: per-source federation
//! health (latency, failures, circuit-breaker activity), recorded by the
//! thin router's fan-out threads with the same lock-free discipline.
//!
//! [`QueryMetrics`] instruments the local read path: every query executed
//! by the [`crate::engine::QueryEngine`] folds its per-stage wall times
//! (index lookup, context walk, intersection, content collection) and its
//! cache outcome into these counters, surfaced via `NetMark::stats()` and
//! the `GET /xdb/stats` endpoint.
//!
//! Each block is declared once through [`netmark_model::stats!`], which
//! generates the snapshot struct, its `since`/`merge`/`to_node`, and the
//! atomic twin's `snapshot()`; only the `record*` methods live here.

use netmark_model::stats;
use std::sync::atomic::Ordering;
use std::time::Duration;

stats! {
    /// Point-in-time copy of [`IngestMetrics`].
    pub struct IngestStats => "ingest" {
        /// Documents upmarked.
        documents: u64 = sum("documents"),
        /// `XML` rows written.
        nodes: u64 = sum("nodes"),
        /// Store batches committed.
        batches: u64 = sum("batches"),
        /// Files that failed to ingest.
        errors: u64 = sum("errors"),
        /// High-water mark of the pipeline document queue.
        max_queue_depth: u64 = max("max-queue-depth"),
        /// Wall time in the upmark stage (summed across workers).
        upmark_time: Duration = sum("upmark-us"),
        /// Wall time inside store transactions.
        store_time: Duration = sum("store-us"),
        /// Wall time feeding the text index.
        index_time: Duration = sum("index-us"),
    }
    /// Cumulative ingest counters (lock-free; shared across threads).
    pub struct IngestMetrics => atomic;
}

impl IngestMetrics {
    /// Records wall time spent upmarking (stage 1). Documents are counted
    /// at commit time by [`IngestMetrics::record_store`], so a parsed file
    /// that never commits is not inflated into the throughput numbers.
    pub fn record_upmark(&self, elapsed: Duration) {
        self.upmark_time
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Records one committed store batch of `docs` documents totalling
    /// `nodes` rows (stage 2).
    pub fn record_store(&self, docs: u64, nodes: u64, elapsed: Duration) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.documents.fetch_add(docs, Ordering::Relaxed);
        self.nodes.fetch_add(nodes, Ordering::Relaxed);
        self.store_time
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Records time spent feeding the text index (stage 3).
    pub fn record_index(&self, elapsed: Duration) {
        self.index_time
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Records one file that failed to ingest (isolated, not fatal).
    pub fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds an observed pipeline queue depth into the high-water mark.
    pub fn observe_queue_depth(&self, depth: usize) {
        self.max_queue_depth
            .fetch_max(depth as u64, Ordering::Relaxed);
    }
}

impl IngestStats {
    /// Mean documents per committed batch.
    pub fn mean_batch_size(&self) -> f64 {
        ratio(self.documents as f64, self.batches as f64)
    }

    /// Ingest throughput in documents/second over `wall` elapsed time.
    pub fn docs_per_sec(&self, wall: Duration) -> f64 {
        ratio(self.documents as f64, wall.as_secs_f64())
    }

    /// Ingest throughput in nodes/second over `wall` elapsed time.
    pub fn nodes_per_sec(&self, wall: Duration) -> f64 {
        ratio(self.nodes as f64, wall.as_secs_f64())
    }
}

stats! {
    /// Point-in-time copy of [`SourceMetrics`].
    pub struct SourceStats => "source" {
        /// Queries dispatched to (or short-circuited at) this source.
        queries: u64 = sum("queries"),
        /// Queries that ended in a source error.
        failures: u64 = sum("failures"),
        /// Hits contributed across all queries.
        hits: u64 = sum("hits"),
        /// Summed query latency.
        total_latency: Duration = sum("total-latency-us"),
        /// Worst single-query latency.
        max_latency: Duration = max("max-latency-us"),
        /// Times the circuit breaker opened. The adapter's breaker owns
        /// this count; `Router::source_stats` splices it in.
        breaker_opens: u64 = sum("breaker-opens"),
        /// Queries skipped because the breaker was open.
        short_circuits: u64 = sum("short-circuits"),
    }
    /// Cumulative per-source federation counters (lock-free; shared
    /// between the router's fan-out threads and monitoring readers).
    ///
    /// The router keeps one of these per registered source; every
    /// federated query records its outcome here — latency, hit counts,
    /// failures, and short circuits — so source health is observable
    /// without scraping query results.
    pub struct SourceMetrics => atomic;
}

impl SourceMetrics {
    /// Records one completed source query: hits contributed, wall latency,
    /// and whether the source failed (a failed source still has latency —
    /// the time spent finding out).
    pub fn record_query(&self, hits: u64, latency: Duration, failed: bool) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.hits.fetch_add(hits, Ordering::Relaxed);
        if failed {
            self.failures.fetch_add(1, Ordering::Relaxed);
        }
        let nanos = latency.as_nanos() as u64;
        self.total_latency.fetch_add(nanos, Ordering::Relaxed);
        self.max_latency.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Records a query answered without touching the source because its
    /// breaker was open.
    pub fn record_short_circuit(&self) {
        self.short_circuits.fetch_add(1, Ordering::Relaxed);
    }
}

impl SourceStats {
    /// Mean per-query latency.
    pub fn mean_latency(&self) -> Duration {
        self.total_latency
            .checked_div(self.queries as u32)
            .unwrap_or_default()
    }

    /// Fraction of queries that failed (0.0 when none ran).
    pub fn failure_rate(&self) -> f64 {
        ratio(self.failures as f64, self.queries as f64)
    }
}

/// Per-stage record of one executed query, returned by
/// `QueryEngine::execute_traced` and folded into [`QueryMetrics`].
///
/// A cache hit short-circuits execution: only `total` is meaningful then.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryTrace {
    /// The result came straight from the generation-stamped cache.
    pub cache_hit: bool,
    /// Wall time querying the text index (postings fetch, BM25 scoring,
    /// CTXKEY probe).
    pub index_lookup: Duration,
    /// Wall time mapping hits to their governing contexts (the placements
    /// the text index carries). A parallel term fan-out books its wall
    /// time across this stage and `index_lookup`, in proportion to the
    /// workers' own times.
    pub context_walk: Duration,
    /// Wall time intersecting per-term / context ∩ content key sets.
    pub intersection: Duration,
    /// Wall time ranking candidates and collecting the winners' section
    /// content.
    pub collection: Duration,
    /// End-to-end wall time, including cache probes.
    pub total: Duration,
    /// Text-index candidate postings examined.
    pub candidates: usize,
    /// Terms fanned out on the engine's `scatter` workers (0 = executed
    /// serially).
    pub fanout: usize,
    /// Candidates that displaced the weakest entry of a full collection
    /// heap (zero when the query carries no limit, or fewer candidates).
    pub heap_evictions: u64,
}

stats! {
    /// Point-in-time copy of [`QueryMetrics`], rendered as `<query/>`. Durations are served in
    /// microseconds — query stages are routinely sub-ms.
    pub struct QueryStats => "query" {
        /// Queries executed (hits + misses).
        queries: u64 = sum("queries"),
        /// Queries answered from the result cache.
        cache_hits: u64 = sum("cache-hits"),
        /// Queries that executed cold.
        cache_misses: u64 = sum("cache-misses"),
        /// Cold queries whose terms fanned out on the engine's workers.
        parallel_queries: u64 = sum("parallel"),
        /// Cumulative text-index candidates examined.
        candidates: u64 = sum("candidates"),
        /// Cumulative collection-heap evictions.
        heap_evictions: u64 = sum("heap-evictions"),
        /// Inert, always 0: there is no context memo any more (the text
        /// index resolves contexts). Kept so the served names and the
        /// benchmark that reads them do not change.
        memo_hits: u64 = sum("memo-hits"),
        /// Inert, always 0 (see `memo_hits`).
        memo_misses: u64 = sum("memo-misses"),
        /// Cumulative wall time in text-index lookups.
        index_time: Duration = sum("index-us"),
        /// Cumulative wall time mapping hits to governing contexts.
        walk_time: Duration = sum("walk-us"),
        /// Cumulative wall time intersecting candidate key sets.
        intersect_time: Duration = sum("intersect-us"),
        /// Cumulative wall time collecting section content.
        collect_time: Duration = sum("collect-us"),
        /// Cumulative end-to-end wall time.
        total_time: Duration = sum("total-us"),
    }
    /// Cumulative read-path counters (lock-free; shared across server
    /// threads). One per [`crate::engine::QueryEngine`]; its memo fields
    /// stay zero.
    pub struct QueryMetrics => atomic;
}

impl QueryMetrics {
    /// Folds one completed query into the counters.
    pub fn record(&self, trace: &QueryTrace) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.total_time
            .fetch_add(trace.total.as_nanos() as u64, Ordering::Relaxed);
        if trace.cache_hit {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        self.candidates
            .fetch_add(trace.candidates as u64, Ordering::Relaxed);
        self.heap_evictions
            .fetch_add(trace.heap_evictions, Ordering::Relaxed);
        if trace.fanout > 0 {
            self.parallel_queries.fetch_add(1, Ordering::Relaxed);
        }
        self.index_time
            .fetch_add(trace.index_lookup.as_nanos() as u64, Ordering::Relaxed);
        self.walk_time
            .fetch_add(trace.context_walk.as_nanos() as u64, Ordering::Relaxed);
        self.intersect_time
            .fetch_add(trace.intersection.as_nanos() as u64, Ordering::Relaxed);
        self.collect_time
            .fetch_add(trace.collection.as_nanos() as u64, Ordering::Relaxed);
    }
}

impl QueryStats {
    /// Fraction of queries answered from the cache (0.0 when none ran).
    pub fn cache_hit_rate(&self) -> f64 {
        ratio(self.cache_hits as f64, self.queries as f64)
    }

    /// Mean end-to-end latency per query.
    pub fn mean_latency(&self) -> Duration {
        self.total_time
            .checked_div(self.queries as u32)
            .unwrap_or_default()
    }
}

/// `n / of`, or 0.0 when nothing was counted (or no time passed).
fn ratio(n: f64, of: f64) -> f64 {
    if of > 0.0 {
        n / of
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let m = IngestMetrics::default();
        m.record_upmark(Duration::from_millis(30));
        m.record_store(2, 120, Duration::from_millis(50));
        m.record_store(1, 80, Duration::from_millis(20));
        m.record_index(Duration::from_millis(5));
        m.record_error();
        m.observe_queue_depth(4);
        m.observe_queue_depth(2);
        let s = m.snapshot();
        assert_eq!(s.documents, 3);
        assert_eq!(s.nodes, 200);
        assert_eq!(s.batches, 2);
        assert_eq!(s.errors, 1);
        assert_eq!(s.max_queue_depth, 4, "high-water mark, not last value");
        assert_eq!(s.upmark_time, Duration::from_millis(30));
        assert_eq!(s.store_time, Duration::from_millis(70));
        assert_eq!(s.mean_batch_size(), 1.5);
    }

    #[test]
    fn source_metrics_accumulate() {
        let m = SourceMetrics::default();
        m.record_query(3, Duration::from_millis(10), false);
        m.record_query(0, Duration::from_millis(30), true);
        m.record_short_circuit();
        let s = m.snapshot();
        assert_eq!(s.queries, 2);
        assert_eq!(s.failures, 1);
        assert_eq!(s.hits, 3);
        assert_eq!(s.total_latency, Duration::from_millis(40));
        assert_eq!(s.max_latency, Duration::from_millis(30));
        assert_eq!(s.mean_latency(), Duration::from_millis(20));
        assert_eq!(s.failure_rate(), 0.5);
        assert_eq!(s.short_circuits, 1);
        assert_eq!(SourceStats::default().mean_latency(), Duration::ZERO);
        assert_eq!(SourceStats::default().failure_rate(), 0.0);
    }

    #[test]
    fn query_metrics_accumulate_and_render() {
        let m = QueryMetrics::default();
        m.record(&QueryTrace {
            cache_hit: false,
            index_lookup: Duration::from_micros(100),
            context_walk: Duration::from_micros(200),
            intersection: Duration::from_micros(10),
            collection: Duration::from_micros(40),
            total: Duration::from_micros(400),
            candidates: 7,
            fanout: 3,
            heap_evictions: 2,
        });
        m.record(&QueryTrace {
            cache_hit: true,
            total: Duration::from_micros(2),
            ..Default::default()
        });
        let s = m.snapshot();
        assert_eq!(s.queries, 2);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.parallel_queries, 1);
        assert_eq!(s.candidates, 7);
        assert_eq!(s.index_time, Duration::from_micros(100));
        assert_eq!(s.walk_time, Duration::from_micros(200));
        assert_eq!(s.total_time, Duration::from_micros(402));
        assert_eq!(s.cache_hit_rate(), 0.5);
        assert_eq!(s.mean_latency(), Duration::from_micros(201));
        assert_eq!(s.heap_evictions, 2);
        let node = s.to_node();
        assert_eq!(node.name, "query");
        assert_eq!(node.attr("cache-hits"), Some("1"));
        assert_eq!(node.attr("walk-us"), Some("200"));
        assert_eq!(node.attr("heap-evictions"), Some("2"));
        assert!(node.children.is_empty(), "every counter is an attribute");
        assert_eq!(QueryStats::default().cache_hit_rate(), 0.0);
        assert_eq!(QueryStats::default().mean_latency(), Duration::ZERO);
        let delta = s.since(&s);
        assert_eq!(delta.queries, 0);
        assert_eq!(delta.total_time, Duration::ZERO);
    }

    #[test]
    fn rates_and_deltas() {
        let m = IngestMetrics::default();
        m.record_store(10, 100, Duration::from_millis(1));
        let before = m.snapshot();
        m.record_store(40, 400, Duration::from_millis(1));
        let delta = m.snapshot().since(&before);
        assert_eq!(delta.documents, 40);
        assert_eq!(delta.nodes, 400);
        assert_eq!(delta.docs_per_sec(Duration::from_secs(2)), 20.0);
        assert_eq!(delta.nodes_per_sec(Duration::from_secs(2)), 200.0);
        assert_eq!(IngestStats::default().docs_per_sec(Duration::ZERO), 0.0);
        assert_eq!(IngestStats::default().mean_batch_size(), 0.0);
    }

    #[test]
    fn query_stats_merge_sums_counters() {
        let a = QueryStats {
            queries: 10,
            cache_hits: 4,
            cache_misses: 6,
            parallel_queries: 2,
            candidates: 100,
            heap_evictions: 3,
            memo_hits: 30,
            memo_misses: 5,
            index_time: Duration::from_micros(100),
            walk_time: Duration::from_micros(200),
            intersect_time: Duration::from_micros(300),
            collect_time: Duration::from_micros(400),
            total_time: Duration::from_micros(1000),
        };
        let b = QueryStats {
            queries: 3,
            cache_hits: 1,
            cache_misses: 2,
            parallel_queries: 1,
            candidates: 50,
            heap_evictions: 1,
            memo_hits: 10,
            memo_misses: 8,
            index_time: Duration::from_micros(10),
            walk_time: Duration::from_micros(20),
            intersect_time: Duration::from_micros(30),
            collect_time: Duration::from_micros(40),
            total_time: Duration::from_micros(100),
        };
        let mut merged = a;
        merged.merge(&b);
        // Counters sum.
        assert_eq!(merged.queries, 13);
        assert_eq!(merged.cache_hits, 5);
        assert_eq!(merged.cache_misses, 8);
        assert_eq!(merged.parallel_queries, 3);
        assert_eq!(merged.candidates, 150);
        assert_eq!(merged.heap_evictions, 4);
        assert_eq!(merged.memo_hits, 40);
        assert_eq!(merged.memo_misses, 13);
        assert_eq!(merged.total_time, Duration::from_micros(1100));
        assert_eq!(merged.index_time, Duration::from_micros(110));
        // Merge order must not matter.
        let mut other = b;
        other.merge(&a);
        assert_eq!(merged, other);
    }
}
