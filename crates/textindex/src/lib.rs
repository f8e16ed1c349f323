//! `netmark-textindex`: the full-text index substrate (the paper's stand-in
//! for Oracle Text).
//!
//! "The keyword-based context and content search is performed by first
//! querying the text index for the search key" (paper §2.1.4). This crate
//! provides that index: node-granular inverted lists with delta-varint
//! compression, term and phrase lookup, BM25 scoring, tombstone deletion,
//! and persistence. Sections are combined in the engine, not here: the
//! engine asks only for the nodes holding one term and the nodes holding a
//! phrase. A context's whole label is one more term of its id
//! ([`label_term`]), so the contexts carrying a label are a posting list.
//!
//! Two index shapes share the same lookup semantics:
//! - [`SegmentedIndex`]: the production shape — an LSM-style chain of
//!   immutable [`segment::Segment`]s behind
//!   [`snapshot::IndexSnapshot`] publication, with background
//!   [`compact::Compactor`] merges and incremental per-segment
//!   persistence in one segment file format.
//! - [`InvertedIndex`]: a single in-memory term map, kept as the reference
//!   the segmented shape is tested against. Lookup results are
//!   byte-identical between the two over the same documents.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compact;
pub mod index;
pub mod postings;
pub mod segment;
pub mod segmented;
pub mod snapshot;
pub mod tokenize;

pub use compact::{CompactionPolicy, Compactor};
pub use index::InvertedIndex;
pub use postings::{Posting, PostingList};
pub use segment::{label_term, MemTable, Placement, Segment};
pub use segmented::{Built, IndexStats, SaveReport, SegmentedIndex, Staged};
pub use snapshot::{sum_scores, IndexSnapshot};
pub use tokenize::{query_terms, tokenize_text, TextToken};
