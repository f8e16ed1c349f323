//! `netmark-model`: the document/node model shared by every layer of the
//! NETMARK reproduction.
//!
//! Defines the paper's five node data types (`ELEMENT`, `TEXT`, `CONTEXT`,
//! `INTENSE`, `SIMULATION` — Fig 5), the upmarked document tree
//! ([`Node`] / [`Document`]), XML escaping, and serialization. Parsers
//! (`netmark-sgml`) produce this model; the store flattens it into the
//! `XML`/`DOC` tables; the XSLT engine transforms it. The [`stats!`] macro
//! declares every observability counter block once, rendered as `Node`s.
//! [`IdMap`] and [`IdSet`] hash the internal ids the layers hand out.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod escape;
pub mod idhash;
pub mod node;
pub mod stats;

pub use escape::{escape_attr, escape_text, unescape};
pub use idhash::{IdHasher, IdMap, IdSet};
pub use node::{Document, Node, NodeIter, NodeType};
