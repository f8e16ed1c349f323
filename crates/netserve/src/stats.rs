//! Front-end observability: lock-free counters surfaced as `<server/>`
//! under `GET /xdb/stats` (the servers serve the document; this crate
//! counts).

use std::sync::Arc;

netmark_model::stats! {
    /// Plain-data snapshot of [`FrontendStats`], served as `<server/>`.
    pub struct FrontendStatsSnapshot => "server" {
        /// Connections accepted off the listener (before admission
        /// control).
        accepted: u64 = sum("accepted"),
        /// Requests fully served (response written).
        requests: u64 = sum("requests"),
        /// Gauge: connections currently alive (admitted, not yet closed).
        active: u64 = gauge("active"),
        /// Gauge: connections waiting in the bounded ready queue.
        queued: u64 = gauge("queued"),
        /// Gauge: idle keep-alive connections in the parking lot.
        parked: u64 = gauge("parked"),
        /// Connections answered `429` because the ready queue was at
        /// capacity or the global connection cap was reached.
        sheds: u64 = sum("shed"),
        /// Connections answered `429` because one client address exceeded
        /// its in-flight fairness cap.
        client_rejects: u64 = sum("client-rejects"),
        /// Waits by a worker on an idle connection that ended with its
        /// next request, served without parking the connection.
        waits_served: u64 = sum("waits-served"),
        /// Waits by a worker on an idle connection that ended because the
        /// worker was needed elsewhere; the connection was parked.
        waits_parked: u64 = sum("waits-parked"),
        /// Keep-alive connections reaped after sitting idle between
        /// requests past the idle timeout.
        idle_reaped: u64 = sum("idle-reaped"),
        /// Connections killed mid-request by the read budget (slow-loris).
        read_timeouts: u64 = sum("read-timeouts"),
        /// Responses whose write failed or timed out (dead or slow-reading
        /// peer).
        write_errors: u64 = sum("write-errors"),
        /// Requests whose total service time overran the soft per-request
        /// deadline (served anyway; this is the observability half of the
        /// deadline story — reads are bounded hard, handlers are measured).
        deadline_overruns: u64 = sum("deadline-overruns"),
        /// `accept(2)` failures (fd exhaustion above all); each one also
        /// sleeps the accept-error backoff instead of hot-spinning.
        accept_errors: u64 = sum("accept-errors"),
        /// Handler panics caught by a worker (the connection is dropped,
        /// its accounting released by RAII, and the worker keeps serving).
        panics: u64 = sum("panics"),
    }
    /// Live counters for one front end. All atomics, relaxed: these are
    /// monitoring signals, not synchronization.
    pub struct FrontendStats => atomic;
}

impl FrontendStats {
    /// A fresh shared handle, for threading one stats block through both
    /// the front end and the request handler that renders it.
    pub fn shared() -> Arc<FrontendStats> {
        Arc::new(FrontendStats::default())
    }
}
