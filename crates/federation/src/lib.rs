//! `netmark-federation`: databanks and the thin router (paper §2.1.5,
//! Fig 8).
//!
//! Integration in NETMARK is *declared, not programmed*: an administrator
//! lists the sources of an application in a [`Databank`]; queries fan out
//! to all of them simultaneously; sources that only support a fragment of
//! the query language get the supported fragment pushed down and the rest
//! **augmented** by the router (fetch candidate documents, re-evaluate the
//! full query locally via [`matcher`]). The router holds no schemas and no
//! mappings — "middleware requirements are reduced to needing just a thin
//! router capability across the various information sources".
//!
//! Failure injection ([`adapter::FlakySource`]) lets tests and benches
//! exercise graceful degradation: a downed source is reported in the
//! [`SourceOutcome`], never fails the query.
//!
//! Sources need not be in-process: a [`RemoteSource`] speaks XDB-over-HTTP
//! to a live server through a pooled keep-alive [`client::HttpClient`]
//! (timeouts, retry with backoff + jitter), negotiates [`Capabilities`] at
//! registration, and guards the wire with a per-source circuit breaker —
//! the comms/robustness layer of the Fig-8 deployment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapter;
pub mod client;
pub mod databank;
pub mod matcher;
pub mod remote;
pub mod serve;

pub use adapter::{
    Capabilities, ContentOnlySource, FlakySource, NetmarkSource, SourceAdapter, SourceError,
};
pub use client::{ClientConfig, HttpClient, HttpResponse};
pub use databank::{
    Databank, FederatedResult, Router, RouterError, SourceOutcome, DEFAULT_MAX_FANOUT,
};
pub use matcher::{match_document, score_hits, sections, Section};
pub use remote::{BreakerConfig, BreakerState, RemoteConfig, RemoteSource};
pub use serve::{handle_federated, serve_router, serve_router_with, FederatedServerHandle};
// Front-end tuning/observability, re-exported for deployments of
// `serve_router_with` (same types the WebDAV server uses).
pub use netmark_netserve::{FrontendConfig, FrontendStats, FrontendStatsSnapshot};
