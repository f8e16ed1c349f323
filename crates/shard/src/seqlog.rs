//! The global ingest-order log: `seq.log` in the store root.
//!
//! Byte-identical scatter-gather depends on one fact the shards cannot
//! know on their own: the *global* order in which documents arrived. A
//! single store orders hits by `(doc_id, node_id)`, and doc ids are handed
//! out in ingest order — so the sharded coordinator keeps its own
//! monotonic sequence number per document name and sorts merged hits by
//! it. Per-shard hit order is already this sequence restricted to one
//! shard (shards receive documents in arrival order), so a stable sort of
//! the concatenated shard results reproduces the single-store order
//! exactly.
//!
//! The log is append-only text, one operation per line:
//!
//! ```text
//! NMSEQ1
//! + 1 plan-a.wdoc
//! + 2 plan-b.txt
//! - plan-a.wdoc
//! + 3 plan-a.wdoc
//! ```
//!
//! Names are escaped (`\\`, `\n`, `\r`) so arbitrary file names survive
//! the line orientation. Replay is self-healing: a torn or malformed tail
//! line (a crash mid-append) is skipped rather than failing the open —
//! the worst outcome is one document sorting at the end until the next
//! compaction, never a store that refuses to start. [`SeqLog::compact`]
//! rewrites the live mapping in sequence order, dropping dead `-` pairs.
//!
//! A file name is a key, so every ingest of a name assigns it a fresh
//! number, whether the name is live (the ingest replaces that document)
//! or was removed: a single store gives the new document a fresh doc id
//! either way. Replay keeps a name's last `+` line.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// File name of the sequence log inside the store root.
pub const FILE_NAME: &str = "seq.log";

/// Magic first line of a `seq.log` file.
pub const MAGIC: &str = "NMSEQ1";

struct SeqInner {
    file: File,
    map: HashMap<String, u64>,
    next: u64,
}

/// The global ingest-order log. See the module docs.
pub struct SeqLog {
    path: PathBuf,
    inner: Mutex<SeqInner>,
}

fn escape(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some(c) => out.push(c),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// `(sequence, name)` pairs of `map` in sequence order.
fn in_order(map: &HashMap<String, u64>) -> Vec<(u64, String)> {
    let mut v: Vec<(u64, String)> = map.iter().map(|(n, &s)| (s, n.clone())).collect();
    v.sort();
    v
}

impl SeqLog {
    /// Opens (or creates) the log at `path`, replaying its history.
    pub fn open(path: &Path) -> io::Result<SeqLog> {
        let mut map: HashMap<String, u64> = HashMap::new();
        let mut next: u64 = 1;
        match std::fs::read_to_string(path) {
            Ok(text) => {
                for line in text.lines().skip(1) {
                    // Self-healing replay: skip anything that does not
                    // parse (e.g. a torn final append after a crash).
                    if let Some(rest) = line.strip_prefix("+ ") {
                        let Some((seq, name)) = rest.split_once(' ') else {
                            continue;
                        };
                        let Ok(seq) = seq.parse::<u64>() else {
                            continue;
                        };
                        map.insert(unescape(name), seq);
                        next = next.max(seq + 1);
                    } else if let Some(name) = line.strip_prefix("- ") {
                        map.remove(&unescape(name));
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let fresh = !path.exists();
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        if fresh {
            writeln!(file, "{MAGIC}")?;
        }
        Ok(SeqLog {
            path: path.to_path_buf(),
            inner: Mutex::new(SeqInner { file, map, next }),
        })
    }

    /// Assigns (and logs) a fresh sequence number to `name`, replacing
    /// the one a live name had.
    pub fn assign(&self, name: &str) -> io::Result<u64> {
        let mut inner = self.inner.lock();
        let seq = inner.next;
        inner.next += 1;
        writeln!(inner.file, "+ {seq} {}", escape(name))?;
        inner.map.insert(name.to_string(), seq);
        Ok(seq)
    }

    /// Drops the mapping for `name` (a removed document). A later
    /// re-insert gets a fresh sequence number.
    pub fn remove(&self, name: &str) -> io::Result<()> {
        let mut inner = self.inner.lock();
        if inner.map.remove(name).is_some() {
            writeln!(inner.file, "- {}", escape(name))?;
        }
        Ok(())
    }

    /// Runs `f` over the live name → sequence map without copying it (the
    /// merge path keys its sort through this).
    pub fn with_map<R>(&self, f: impl FnOnce(&HashMap<String, u64>) -> R) -> R {
        f(&self.inner.lock().map)
    }

    /// Live `(sequence, name)` pairs in sequence order — the global ingest
    /// order, used by rebalance to replay documents.
    pub fn entries_in_order(&self) -> Vec<(u64, String)> {
        self.with_map(in_order)
    }

    /// Rewrites the log as the live mapping in sequence order, dropping
    /// removed names and superseded appends (temp file + rename).
    pub fn compact(&self) -> io::Result<()> {
        let mut inner = self.inner.lock();
        let tmp = self.path.with_extension("log.tmp");
        {
            let mut f = File::create(&tmp)?;
            writeln!(f, "{MAGIC}")?;
            for (seq, name) in in_order(&inner.map) {
                writeln!(f, "+ {seq} {}", escape(&name))?;
            }
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        inner.file = OpenOptions::new().append(true).open(&self.path)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SeqLog {
        fn seq_of(&self, name: &str) -> Option<u64> {
            self.with_map(|map| map.get(name).copied())
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nm-seqlog-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn assign_remove_reassign_round_trips() {
        let dir = scratch("rt");
        let path = dir.join(FILE_NAME);
        {
            let log = SeqLog::open(&path).unwrap();
            assert_eq!(log.assign("a.txt").unwrap(), 1);
            assert_eq!(log.assign("b.txt").unwrap(), 2);
            assert_eq!(
                log.assign("a.txt").unwrap(),
                3,
                "a live name gets a fresh seq"
            );
            log.remove("a.txt").unwrap();
            assert_eq!(log.seq_of("a.txt"), None);
            assert_eq!(
                log.assign("a.txt").unwrap(),
                4,
                "re-insert gets a fresh seq"
            );
        }
        let log = SeqLog::open(&path).unwrap();
        assert_eq!(log.seq_of("a.txt"), Some(4));
        assert_eq!(log.seq_of("b.txt"), Some(2));
        assert_eq!(log.assign("c.txt").unwrap(), 5, "counter survives reopen");
        assert_eq!(
            log.entries_in_order(),
            vec![
                (2, "b.txt".to_string()),
                (4, "a.txt".to_string()),
                (5, "c.txt".to_string())
            ]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hostile_names_survive() {
        let dir = scratch("esc");
        let path = dir.join(FILE_NAME);
        let names = ["with space.txt", "back\\slash", "new\nline", "cr\rname"];
        {
            let log = SeqLog::open(&path).unwrap();
            for n in names {
                log.assign(n).unwrap();
            }
        }
        let log = SeqLog::open(&path).unwrap();
        for (i, n) in names.iter().enumerate() {
            assert_eq!(log.seq_of(n), Some(i as u64 + 1), "{n:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_skipped_not_fatal() {
        let dir = scratch("torn");
        let path = dir.join(FILE_NAME);
        {
            let log = SeqLog::open(&path).unwrap();
            log.assign("a.txt").unwrap();
            log.assign("b.txt").unwrap();
        }
        // Simulate a crash mid-append: a truncated final line.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        write!(f, "+ 7 tor").unwrap();
        drop(f);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.truncate(text.len() - 2);
        std::fs::write(&path, text).unwrap();
        let log = SeqLog::open(&path).unwrap();
        assert_eq!(log.seq_of("a.txt"), Some(1));
        assert_eq!(log.seq_of("b.txt"), Some(2));
        // The torn "+ 7 t" line DID parse its seq, which is fine: the
        // counter only ever moves forward.
        assert!(log.assign("c.txt").unwrap() >= 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_drops_dead_history() {
        let dir = scratch("compact");
        let path = dir.join(FILE_NAME);
        let log = SeqLog::open(&path).unwrap();
        for i in 0..10 {
            log.assign(&format!("d{i}.txt")).unwrap();
        }
        for i in 0..5 {
            log.remove(&format!("d{i}.txt")).unwrap();
        }
        log.compact().unwrap();
        let lines = std::fs::read_to_string(&path).unwrap().lines().count();
        assert_eq!(lines, 6, "magic + 5 live entries");
        // Appends still work after compaction swapped the file.
        log.assign("late.txt").unwrap();
        drop(log);
        let log = SeqLog::open(&path).unwrap();
        assert_eq!(log.entries_in_order().len(), 6);
        assert_eq!(log.seq_of("d7.txt"), Some(8));
        assert_eq!(log.seq_of("late.txt"), Some(11));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
