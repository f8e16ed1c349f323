//! `netmark-netserve`: the bounded server front end shared by every HTTP
//! endpoint in the reproduction.
//!
//! The paper's thesis is that middleware should shrink until documents are
//! served "at the speed of the underlying store" (§2.1.5). PRs 4–5 made
//! the read path lock-free end to end; at that point the *accept loop*
//! becomes the tail-latency ceiling: a thread per connection means an
//! unbounded thread count, no admission control, and one slow or silent
//! client pinning a worker forever.
//!
//! This crate replaces thread-per-connection with a fixed shape whose
//! every dimension is bounded (DESIGN.md §13):
//!
//! - a **fixed worker pool** fed by a **bounded ready queue** of
//!   connections known to have bytes waiting;
//! - a **parking lot** for idle keep-alive connections, swept by one
//!   poller thread with non-blocking peeks — thousands of parked sockets
//!   cost zero worker threads (epoll-free per the DESIGN §9 "no async
//!   runtime" decision: bounded threads + socket timeouts);
//! - a **wait** before parking: the worker that answered a keep-alive
//!   request waits for the next one, in waits of at most one
//!   [`FrontendConfig::poll_interval`], while more workers are idle than
//!   connections are queued, so a keep-alive client is not served at the
//!   sweep's cadence;
//! - **admission control** at accept time: a global connection cap, a
//!   per-client in-flight fairness cap, and queue-depth load shedding,
//!   all answered with the service's canned `429 + Retry-After` payload;
//! - **slow-loris defense** as two distinct budgets: idle *between*
//!   requests (parked, reaped after [`FrontendConfig::idle_timeout`]) vs
//!   reading *mid-request* ([`FrontendConfig::read_budget`], enforced by a
//!   deadline-checking reader so trickled bytes cannot extend it);
//! - **RAII accounting**: every accepted connection holds a guard that
//!   releases its registry entry, per-client slot, and gauge on drop — a
//!   panicking handler can no longer leak any of them;
//! - **accept-error backoff**: `accept(2)` failures (EMFILE above all)
//!   sleep [`FrontendConfig::accept_error_backoff`] and are counted,
//!   instead of hot-spinning the accept loop at 100% CPU.
//!
//! The crate is protocol-agnostic: servers implement [`Service`] (one
//! request parsed off a `BufRead`, one response written) and the front end
//! owns every socket lifecycle decision. `netmark-webdav` supplies the
//! HTTP/1.1 binding used by both the NETMARK server and the federation
//! router.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod frontend;
mod stats;

pub use frontend::{Acceptor, Frontend, FrontendConfig, FrontendHandle, ServeOutcome, Service};
pub use stats::{FrontendStats, FrontendStatsSnapshot};
