//! `netmark-gav`: the Global-as-View mediator baseline.
//!
//! The paper positions NETMARK against GAV mediation systems — MIX,
//! Tukwila, and the industrial Enosys/Nimble built on them (§4). Those
//! systems require, per integration: a declared schema ("source view") for
//! every source, a global view definition, and mappings between them; each
//! source change forces mapping revisions. This crate implements that
//! architecture from scratch — source schemas, global views as unions of
//! select-project mappings, query answering by view unfolding — **and
//! counts every artifact**, because the artifact count is the "IT cost"
//! curve of the paper's Fig 1.
//!
//! Used by the Fig 1 cost-scaling experiment and the §4 "Top Employees"
//! head-to-head (see the bench crate).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mediator;
pub mod model;

pub use mediator::{GavCost, GavError, GlobalView, Mapping, Mediator, ViewQuery};
pub use model::{CmpOp, GRow, GValue, Predicate, RelationSchema, Source};
