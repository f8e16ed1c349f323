//! `netmark-shard`: shard-per-core NETMARK.
//!
//! The paper's "lean middleware" thesis scales out by federating plain
//! NETMARK instances behind a thin router. This crate is the same idea
//! folded into one process: a [`ShardedStore`] partitions documents by
//! name hash across N independent NETMARK shards (default one per core),
//! scatters queries and batched ingest across them with the shared
//! [`netmark::scatter`] executor, and merges answers so the result bytes
//! are identical to a single-shard store with the same history.
//!
//! Layout on disk:
//!
//! ```text
//! store/
//!   SHARDMAP       persisted shard count + partitioner version
//!   seq.log        global ingest-order log (merge ordering)
//!   shard-000/     a full NETMARK instance (WAL, MVCC store, text index)
//!   shard-001/
//!   ...
//! ```
//!
//! The store implements [`netmark::XdbBackend`], so every access layer —
//! the WebDAV server, the federation server's local arm, the drop-folder
//! daemon, the CLI — runs over it unchanged. Resharding is offline via
//! [`rebalance`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod manifest;
pub mod partition;
pub mod rebalance;
pub mod seqlog;
pub mod store;

pub use manifest::ShardManifest;
pub use partition::{fnv1a64, shard_of, PARTITIONER_ID};
pub use rebalance::{rebalance, RebalanceReport};
pub use seqlog::SeqLog;
pub use store::{default_shard_count, ShardOptions, ShardStats, ShardedStore};
