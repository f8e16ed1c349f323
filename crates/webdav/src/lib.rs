//! `netmark-webdav`: the access layer of the reproduction (paper §2.1.2,
//! Fig 3).
//!
//! Two pathways into NETMARK:
//! - **drop folder** → the [`daemon`] "periodically picks up these
//!   documents" and ingests them;
//! - **HTTP/WebDAV** → the [`server`] answers XDB query URLs
//!   (`GET /xdb?Context=…`), document uploads (`PUT /docs/<name>`),
//!   listings (`PROPFIND /docs`), and deletes.
//!
//! Both are built on std TCP only — no HTTP framework, in keeping with the
//! "lean" thesis.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod daemon;
pub mod http;
pub mod ingest;
pub mod server;

pub use daemon::{watch_folder, watch_folder_with, DaemonHandle, DaemonStats};
pub use http::{
    read_head, read_request_from, Head, Request, RequestError, Response, MAX_BODY, MAX_HEADER_BYTES,
};
pub use ingest::IngestService;
pub use server::{
    handle, handle_with, respond_query, serve, serve_http, serve_with, stats_document, HttpService,
    ServerHandle,
};
// Front-end tuning/observability types, re-exported so deployments can
// configure `serve_with` without naming the netserve crate.
pub use netmark_netserve::{FrontendConfig, FrontendStats, FrontendStatsSnapshot};
