//! `netmark` — the core of the *Lean Middleware* reproduction (SIGMOD
//! 2005): the NETMARK schema-less document store with context + content
//! search and on-the-fly result composition.
//!
//! NETMARK's tenets (paper §2.1):
//! 1. *The database is nothing more than intelligent storage*: every
//!    document of every type lands in the same two relational tables
//!    ([`schema`], Fig 5) — no per-document-type schema, ever.
//! 2. *Schema is imposed by clients, as needed*: documents are "upmarked"
//!    into context/content XML by format parsers (`netmark-docformats`)
//!    and queried by section heading, not by schema.
//! 3. *Integration happens at the client, on the fly*: see
//!    `netmark-federation` for databanks over this engine.
//!
//! # Quickstart
//!
//! ```
//! use netmark::{NetMark, XdbQuery};
//!
//! let dir = std::env::temp_dir().join(format!("netmark-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let nm = NetMark::open(&dir).unwrap();
//! nm.insert_file("plan.wdoc", "<<Heading1>> Budget\n<<Normal>> two million\n").unwrap();
//! let results = nm.query(&XdbQuery::context("Budget")).unwrap();
//! assert_eq!(results.hits[0].content_text(), "two million");
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod engine;
pub mod error;
pub mod metrics;
pub mod netmark;
pub mod pipeline;
pub mod scatter;
pub mod schema;
pub mod store;

pub use backend::XdbBackend;
pub use engine::{QueryEngine, QueryEngineOptions};
pub use error::{NetmarkError, Result};
pub use metrics::{
    IngestMetrics, IngestStats, QueryMetrics, QueryStats, QueryTrace, SourceMetrics, SourceStats,
};
pub use netmark::{NetMark, NetMarkOptions, NetMarkStats, QueryOutput};
pub use pipeline::{
    commit_batch, ingest_files, BoundedQueue, PipelineConfig, PipelineStats, RawFile,
};
pub use scatter::{merge_hits, scatter};
pub use store::{DocId, DocInfo, IndexEntry, IngestReport, NodeId, NodeRow, NodeStore, StoreView};

// Re-export the vocabulary types users need at the API surface.
pub use netmark_model::{Document, Node, NodeType};
pub use netmark_textindex::{CompactionPolicy, IndexStats, SegmentedIndex};
pub use netmark_xdb::{Capabilities, Hit, MatchMode, RankMode, ResultSet, XdbQuery};
