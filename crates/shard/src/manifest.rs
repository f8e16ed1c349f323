//! The persisted shard map: `SHARDMAP` in the store root.
//!
//! A sharded store's layout is a contract with its own past: the shard
//! count and the partitioner version together determine where every
//! document lives, so both are written down when the store is created and
//! checked on every subsequent open. Opening with a different requested
//! shard count is an error (resharding is an offline
//! [`crate::rebalance()`]), and opening with an unknown partitioner version
//! is refused outright rather than silently mis-placing documents.
//!
//! The file is three lines of text:
//!
//! ```text
//! NMSHARD1
//! shards 4
//! partitioner fnv1a64/1
//! ```

use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Magic first line of a `SHARDMAP` file.
pub const MAGIC: &str = "NMSHARD1";

/// File name of the shard map inside the store root.
pub const FILE_NAME: &str = "SHARDMAP";

/// The persisted shard map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// Number of shards documents are partitioned across.
    pub shards: usize,
    /// Partitioner identifier (see [`crate::partition::PARTITIONER_ID`]).
    pub partitioner: String,
}

impl ShardManifest {
    /// A manifest for `shards` shards under the current partitioner.
    pub fn new(shards: usize) -> ShardManifest {
        ShardManifest {
            shards,
            partitioner: crate::partition::PARTITIONER_ID.to_string(),
        }
    }

    /// Path of the manifest inside `dir`.
    pub fn path(dir: &Path) -> PathBuf {
        dir.join(FILE_NAME)
    }

    /// Writes the manifest durably (temp file + rename).
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        let tmp = dir.join(format!("{FILE_NAME}.tmp"));
        {
            let mut f = std::fs::File::create(&tmp)?;
            writeln!(f, "{MAGIC}")?;
            writeln!(f, "shards {}", self.shards)?;
            writeln!(f, "partitioner {}", self.partitioner)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, Self::path(dir))
    }

    /// Loads the manifest from `dir`. `Ok(None)` when no manifest exists
    /// (a fresh store); an error when one exists but is malformed or names
    /// a partitioner this build does not implement.
    pub fn load(dir: &Path) -> io::Result<Option<ShardManifest>> {
        let text = match std::fs::read_to_string(Self::path(dir)) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let bad =
            |msg: &str| io::Error::new(io::ErrorKind::InvalidData, format!("SHARDMAP: {msg}"));
        let mut lines = text.lines();
        if lines.next() != Some(MAGIC) {
            return Err(bad("bad magic"));
        }
        let mut shards: Option<usize> = None;
        let mut partitioner: Option<String> = None;
        for line in lines {
            match line.split_once(' ') {
                Some(("shards", v)) => {
                    shards = Some(v.parse().map_err(|_| bad("bad shard count"))?)
                }
                Some(("partitioner", v)) => partitioner = Some(v.to_string()),
                _ => return Err(bad("unknown line")),
            }
        }
        let m = ShardManifest {
            shards: shards
                .filter(|&n| n > 0)
                .ok_or_else(|| bad("missing shard count"))?,
            partitioner: partitioner.ok_or_else(|| bad("missing partitioner"))?,
        };
        if m.partitioner != crate::partition::PARTITIONER_ID {
            return Err(bad(&format!("unsupported partitioner '{}'", m.partitioner)));
        }
        Ok(Some(m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nm-shardmap-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn round_trip() {
        let dir = scratch("rt");
        assert_eq!(ShardManifest::load(&dir).unwrap(), None);
        let m = ShardManifest::new(6);
        m.save(&dir).unwrap();
        assert_eq!(ShardManifest::load(&dir).unwrap(), Some(m));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_and_unsupported_are_refused() {
        let dir = scratch("bad");
        std::fs::write(ShardManifest::path(&dir), "JUNK\n").unwrap();
        assert!(ShardManifest::load(&dir).is_err());
        std::fs::write(
            ShardManifest::path(&dir),
            "NMSHARD1\nshards 0\npartitioner fnv1a64/1\n",
        )
        .unwrap();
        assert!(ShardManifest::load(&dir).is_err(), "zero shards rejected");
        std::fs::write(
            ShardManifest::path(&dir),
            "NMSHARD1\nshards 2\npartitioner md5/9\n",
        )
        .unwrap();
        assert!(
            ShardManifest::load(&dir).is_err(),
            "unknown partitioner rejected"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
