//! `netmark-relstore`: the relational storage substrate of the NETMARK
//! reproduction (the paper's "underlying Oracle ORDBMS").
//!
//! The paper stores every document, whatever its type, in the *same* two
//! relational tables (`XML` and `DOC`) and chases Oracle physical ROWIDs to
//! traverse node trees. This crate provides exactly those primitives, built
//! from scratch:
//!
//! - slotted 8 KiB [`page`]s with stable slot numbers,
//! - [`heap`] files addressed by physical [`RowId`]s that survive updates,
//! - a CLOCK [`buffer`] pool with a no-steal policy,
//! - a redo-only write-ahead log ([`wal`]) with crash [`db`] recovery,
//! - paged B+ tree secondary indexes ([`btree`]) over order-preserving
//!   [`keyenc`] keys,
//! - self-describing tuples in [`mod@tuple`] — the store itself is schema-less,
//!   as the paper requires; schemas exist only as catalog metadata.
//!
//! # Example
//!
//! ```
//! use netmark_relstore::{Database, Schema, ColumnType, Value};
//!
//! let dir = std::env::temp_dir().join(format!("relstore-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let db = Database::open(&dir).unwrap();
//! let t = db
//!     .create_table(
//!         "XML",
//!         Schema::new(&[("NODENAME", ColumnType::Text), ("NODEDATA", ColumnType::Text)]),
//!     )
//!     .unwrap();
//! let rid = t.insert(&vec![Value::from("Context"), Value::from("Introduction")]).unwrap();
//! // Every read goes through a pinned view of the committed state.
//! let view = db.begin_read();
//! assert_eq!(view.table("XML").unwrap().get(rid).unwrap()[1], Value::from("Introduction"));
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod btree;
pub mod buffer;
pub mod catalog;
pub mod db;
pub mod disk;
pub mod error;
pub mod heap;
pub mod keyenc;
pub mod page;
pub mod snapshot;
pub mod tuple;
pub mod wal;

use std::fmt;

/// A physical row identifier: `(heap page number, slot)`.
///
/// The paper: *"we have exploited the feature of physical row-ids in Oracle
/// for very fast traversal between nodes that are related."* A `RowId` stays
/// valid for the lifetime of its tuple — across in-page compaction (slot
/// numbers are stable) and across grows (forwarding cells).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId {
    /// Heap page number.
    pub page: u32,
    /// Slot within the page.
    pub slot: u16,
}

impl RowId {
    /// A placeholder RowId (used when computing candidate index keys before
    /// a row has a location).
    pub const ZERO: RowId = RowId { page: 0, slot: 0 };
}

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}.S{}", self.page, self.slot)
    }
}

pub use db::{Database, DbOptions, ReadView, Table, Txn, ViewTable};
pub use error::{Result, StoreError};
pub use snapshot::MvccStats;
pub use tuple::{Column, ColumnType, Row, Schema, Value};
pub use wal::{ObjectId, WalStats};
