//! `netmark-cli`: the `netmark` command-line tool.
//!
//! The paper's deployment story is "drop files in a folder, query by URL";
//! this binary is the operational wrapper a release would ship:
//!
//! ```text
//! netmark --dir DB ingest FILE...         ingest documents
//! netmark --dir DB ls                     list stored documents
//! netmark --dir DB query 'Context=Budget&Content=engine'
//! netmark --dir DB cat NAME               print a stored document as XML
//! netmark --dir DB rm NAME                remove a document
//! netmark --dir DB serve [--bind ADDR] [--dropbox DIR]
//! netmark --dir DB stats                  store statistics
//! netmark --dir DB --shards N ...         shard-per-core store (scatter-gather)
//! netmark --dir DB shard-rebalance N      offline reshard to N shards
//! ```
//!
//! A store directory created with `--shards` carries a `SHARDMAP`
//! manifest; later invocations detect it and open the sharded layout
//! automatically, so `--shards` is only needed at creation time (or to
//! assert an expected count).
//!
//! Argument handling is hand-rolled (std only), in keeping with the
//! workspace's no-extra-dependencies rule. The logic lives here in the
//! library so it is testable; `main.rs` is a thin shim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use netmark::{NetMark, QueryOutput, XdbBackend};
use netmark_shard::{rebalance, ShardManifest, ShardOptions, ShardedStore};
use netmark_xdb::XdbQuery;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Invocation {
    /// Database directory (`--dir`, default `./netmark-db`).
    pub dir: PathBuf,
    /// Shard count (`--shards`): `Some(n)` opens (or creates) the store
    /// as a sharded layout with `n` shards (`0` = one per core). `None`
    /// auto-detects from the `SHARDMAP` manifest.
    pub shards: Option<usize>,
    /// The subcommand.
    pub command: Command,
}

/// Subcommands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Ingest files.
    Ingest(Vec<PathBuf>),
    /// List stored documents.
    Ls,
    /// Run an XDB query string.
    Query(String),
    /// Print one stored document as XML.
    Cat(String),
    /// Remove one stored document by name.
    Rm(String),
    /// Serve HTTP (+ optional drop folder).
    Serve {
        /// Bind address.
        bind: String,
        /// Optional drop folder to watch.
        dropbox: Option<PathBuf>,
    },
    /// Print store statistics.
    Stats,
    /// Offline reshard of a sharded store to a new shard count.
    ShardRebalance(usize),
    /// Show usage.
    Help,
}

/// Usage text.
pub const USAGE: &str = "netmark — schema-less document store (Lean Middleware reproduction)

USAGE: netmark [--dir DB] <command>

COMMANDS:
  ingest FILE...              upmark + store documents
  ls                          list stored documents
  query 'Context=...&...'     run an XDB query string; add rank=bm25 for
                              relevance-ranked hits with per-hit scores
                              (rank=none — the default — keeps store order)
  cat NAME                    print a stored document as XML
  rm NAME                     remove a document by name
  serve [--bind ADDR] [--dropbox DIR]
                              HTTP server (default 127.0.0.1:7027)
  stats                       store statistics
  shard-rebalance N           offline reshard to N shards

OPTIONS:
  --dir DB                    store directory (default ./netmark-db)
  --shards N                  open/create as a shard-per-core store with
                              N shards (0 = one per core); existing
                              sharded stores are detected automatically
";

/// Parses argv (without the program name). Returns `Err(message)` on bad
/// usage.
pub fn parse_args(args: &[String]) -> Result<Invocation, String> {
    let mut dir = PathBuf::from("./netmark-db");
    let mut shards: Option<usize> = None;
    let mut rest: Vec<&str> = Vec::new();
    let mut i = 0usize;
    while i < args.len() {
        match args[i].as_str() {
            "--dir" => {
                i += 1;
                dir = PathBuf::from(
                    args.get(i)
                        .ok_or_else(|| "--dir needs a value".to_string())?,
                );
            }
            "--shards" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or_else(|| "--shards needs a value".to_string())?;
                shards = Some(
                    v.parse()
                        .map_err(|_| format!("--shards needs a number, got '{v}'"))?,
                );
            }
            other => rest.push(other),
        }
        i += 1;
    }
    let command = match rest.split_first() {
        None | Some((&"help", _)) | Some((&"--help", _)) | Some((&"-h", _)) => Command::Help,
        Some((&"ingest", files)) => {
            if files.is_empty() {
                return Err("ingest needs at least one file".into());
            }
            Command::Ingest(files.iter().map(PathBuf::from).collect())
        }
        Some((&"ls", _)) => Command::Ls,
        Some((&"query", q)) => Command::Query(
            q.first()
                .ok_or_else(|| "query needs a query string".to_string())?
                .to_string(),
        ),
        Some((&"cat", n)) => Command::Cat(
            n.first()
                .ok_or_else(|| "cat needs a document name".to_string())?
                .to_string(),
        ),
        Some((&"rm", n)) => Command::Rm(
            n.first()
                .ok_or_else(|| "rm needs a document name".to_string())?
                .to_string(),
        ),
        Some((&"stats", _)) => Command::Stats,
        Some((&"shard-rebalance", n)) => {
            let v = n
                .first()
                .ok_or_else(|| "shard-rebalance needs a shard count".to_string())?;
            Command::ShardRebalance(
                v.parse()
                    .map_err(|_| format!("shard-rebalance needs a number, got '{v}'"))?,
            )
        }
        Some((&"serve", opts)) => {
            let mut bind = "127.0.0.1:7027".to_string();
            let mut dropbox = None;
            let mut j = 0usize;
            while j < opts.len() {
                match opts[j] {
                    "--bind" => {
                        j += 1;
                        bind = opts
                            .get(j)
                            .ok_or_else(|| "--bind needs a value".to_string())?
                            .to_string();
                    }
                    "--dropbox" => {
                        j += 1;
                        dropbox = Some(PathBuf::from(
                            opts.get(j)
                                .ok_or_else(|| "--dropbox needs a value".to_string())?,
                        ));
                    }
                    other => return Err(format!("unknown serve option '{other}'")),
                }
                j += 1;
            }
            Command::Serve { bind, dropbox }
        }
        Some((cmd, _)) => return Err(format!("unknown command '{cmd}'")),
    };
    Ok(Invocation {
        dir,
        shards,
        command,
    })
}

/// Opens the store behind `dir` as a backend: sharded when `--shards` was
/// given or a `SHARDMAP` manifest is present, a single instance
/// otherwise.
pub fn open_backend(
    dir: &Path,
    shards: Option<usize>,
) -> Result<Arc<dyn XdbBackend>, Box<dyn std::error::Error>> {
    match shards {
        Some(n) => Ok(Arc::new(ShardedStore::open_with(
            dir,
            ShardOptions {
                shards: n,
                ..ShardOptions::default()
            },
        )?)),
        None if ShardManifest::path(dir).exists() => Ok(Arc::new(ShardedStore::open(dir)?)),
        None => Ok(Arc::new(NetMark::open(dir)?)),
    }
}

/// Executes one invocation, writing human output to `out`. `Serve` runs
/// until the process is killed and is therefore not driven through here in
/// tests (the server handle blocks). Returns the process exit code.
pub fn run(inv: &Invocation, out: &mut dyn std::io::Write) -> i32 {
    match run_inner(inv, out) {
        Ok(code) => code,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            1
        }
    }
}

fn run_inner(
    inv: &Invocation,
    out: &mut dyn std::io::Write,
) -> Result<i32, Box<dyn std::error::Error>> {
    if inv.command == Command::Help {
        write!(out, "{USAGE}")?;
        return Ok(0);
    }
    if let Command::ShardRebalance(n) = &inv.command {
        let rep = rebalance(&inv.dir, *n, ShardOptions::default())?;
        writeln!(
            out,
            "rebalanced {} documents: {} -> {} shards",
            rep.documents, rep.from_shards, rep.to_shards
        )?;
        return Ok(0);
    }
    let nm = open_backend(&inv.dir, inv.shards)?;
    match &inv.command {
        Command::Help | Command::ShardRebalance(_) => unreachable!("handled above"),
        Command::Ingest(files) => {
            for f in files {
                let name = f
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_else(|| f.display().to_string());
                let content = std::fs::read_to_string(f)?;
                let rep = nm.insert_file(&name, &content)?;
                writeln!(
                    out,
                    "ingested {name}: doc #{} ({} nodes)",
                    rep.doc_id, rep.node_count
                )?;
            }
            nm.flush()?;
        }
        Command::Ls => {
            for d in nm.list_documents()? {
                writeln!(
                    out,
                    "#{:<5} {:<10} {:>8}B  {}",
                    d.doc_id, d.format, d.file_size, d.file_name
                )?;
            }
        }
        Command::Query(q) => match nm.run(&XdbQuery::from_url(q)?)? {
            QueryOutput::Results(rs) => {
                writeln!(out, "{}", rs.to_node().to_pretty_xml())?;
            }
            QueryOutput::Composed(node) => {
                writeln!(out, "{}", node.to_pretty_xml())?;
            }
        },
        Command::Cat(name) => {
            let doc = nm
                .reconstruct_named(name)?
                .ok_or_else(|| format!("no document named '{name}'"))?;
            writeln!(out, "{}", doc.root.to_pretty_xml())?;
        }
        Command::Rm(name) => {
            if !nm.remove_named(name)? {
                return Err(format!("no document named '{name}'").into());
            }
            nm.flush()?;
            writeln!(out, "removed {name}")?;
        }
        Command::Stats => {
            writeln!(out, "documents:   {}", nm.list_documents()?.len())?;
            let doc = netmark_webdav::stats_document(Some(&*nm), None, None);
            writeln!(out, "{}", doc.to_pretty_xml())?;
        }
        Command::Serve { bind, dropbox } => {
            let _daemon = dropbox.as_ref().map(|d| {
                netmark_webdav::watch_folder(nm.clone(), d, std::time::Duration::from_millis(500))
            });
            let server = netmark_webdav::serve(nm.clone(), bind)?;
            writeln!(out, "serving on http://{}", server.addr())?;
            if let Some(d) = dropbox {
                writeln!(out, "watching drop folder {}", d.display())?;
            }
            // Run until killed.
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_commands() {
        let inv = parse_args(&argv(&["--dir", "/tmp/x", "ls"])).unwrap();
        assert_eq!(inv.dir, PathBuf::from("/tmp/x"));
        assert_eq!(inv.shards, None);
        assert_eq!(inv.command, Command::Ls);

        let inv = parse_args(&argv(&["--shards", "4", "ls"])).unwrap();
        assert_eq!(inv.shards, Some(4));

        let inv = parse_args(&argv(&["shard-rebalance", "8"])).unwrap();
        assert_eq!(inv.command, Command::ShardRebalance(8));

        let inv = parse_args(&argv(&["ingest", "a.txt", "b.wdoc"])).unwrap();
        assert_eq!(
            inv.command,
            Command::Ingest(vec![PathBuf::from("a.txt"), PathBuf::from("b.wdoc")])
        );

        let inv = parse_args(&argv(&["query", "Context=Budget"])).unwrap();
        assert_eq!(inv.command, Command::Query("Context=Budget".into()));

        let inv = parse_args(&argv(&[
            "serve",
            "--bind",
            "0.0.0.0:80",
            "--dropbox",
            "/in",
        ]))
        .unwrap();
        assert_eq!(
            inv.command,
            Command::Serve {
                bind: "0.0.0.0:80".into(),
                dropbox: Some(PathBuf::from("/in")),
            }
        );

        assert_eq!(parse_args(&argv(&[])).unwrap().command, Command::Help);
        assert!(parse_args(&argv(&["ingest"])).is_err());
        assert!(parse_args(&argv(&["bogus"])).is_err());
        assert!(parse_args(&argv(&["--dir"])).is_err());
        assert!(parse_args(&argv(&["serve", "--wat"])).is_err());
        assert!(parse_args(&argv(&["--shards", "many", "ls"])).is_err());
        assert!(parse_args(&argv(&["shard-rebalance"])).is_err());
        assert!(parse_args(&argv(&["shard-rebalance", "x"])).is_err());
    }

    #[test]
    fn ingest_ls_query_cat_rm_stats_round_trip() {
        let base = std::env::temp_dir().join(format!("netmark-cli-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let dbdir = base.join("db");
        let file = base.join("plan.txt");
        std::fs::write(&file, "# Budget\ncli money\n").unwrap();

        let run_cmd = |cmd: Command| -> (i32, String) {
            let inv = Invocation {
                dir: dbdir.clone(),
                shards: None,
                command: cmd,
            };
            let mut buf = Vec::new();
            let code = run(&inv, &mut buf);
            (code, String::from_utf8_lossy(&buf).into_owned())
        };

        let (code, out) = run_cmd(Command::Ingest(vec![file.clone()]));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("ingested plan.txt"));

        let (code, out) = run_cmd(Command::Ls);
        assert_eq!(code, 0);
        assert!(out.contains("plan.txt"));

        let (code, out) = run_cmd(Command::Query("Context=Budget".into()));
        assert_eq!(code, 0);
        assert!(out.contains("cli money"));
        assert!(!out.contains("score="), "unranked output carries no scores");

        // Ranked query: wire v2 output with per-hit scores.
        let (code, out) = run_cmd(Command::Query("Content=money&rank=bm25".into()));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("ranked=\"true\""), "{out}");
        assert!(out.contains("score="), "{out}");

        // A bad rank mode is a typed parse error, not a panic.
        let (code, out) = run_cmd(Command::Query("Content=money&rank=tfidf".into()));
        assert_eq!(code, 1);
        assert!(out.contains("rank"), "{out}");

        let (code, out) = run_cmd(Command::Cat("plan.txt".into()));
        assert_eq!(code, 0);
        assert!(out.contains("<Context"));

        let (code, out) = run_cmd(Command::Stats);
        assert_eq!(code, 0);
        assert!(out.contains("documents:   1"));

        let (code, out) = run_cmd(Command::Rm("plan.txt".into()));
        assert_eq!(code, 0, "{out}");
        let (_, out) = run_cmd(Command::Ls);
        assert!(!out.contains("plan.txt"));

        // Errors are reported, not panicked.
        let (code, out) = run_cmd(Command::Cat("ghost.txt".into()));
        assert_eq!(code, 1);
        assert!(out.contains("error:"));

        let (code, out) = run_cmd(Command::Help);
        assert_eq!(code, 0);
        assert!(out.contains("USAGE"));

        std::fs::remove_dir_all(&base).unwrap();
    }
}

#[cfg(test)]
mod sharded_tests {
    use super::*;

    fn run_in(dir: &Path, shards: Option<usize>, cmd: Command) -> (i32, String) {
        let inv = Invocation {
            dir: dir.to_path_buf(),
            shards,
            command: cmd,
        };
        let mut buf = Vec::new();
        let code = run(&inv, &mut buf);
        (code, String::from_utf8_lossy(&buf).into_owned())
    }

    #[test]
    fn sharded_mode_round_trip_and_auto_detect() {
        let base = std::env::temp_dir().join(format!("netmark-cli-shard-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let dbdir = base.join("db");
        let file = base.join("plan.txt");
        std::fs::write(&file, "# Budget\nsharded money\n").unwrap();

        // Create the store sharded, ingest, query.
        let (code, out) = run_in(&dbdir, Some(2), Command::Ingest(vec![file.clone()]));
        assert_eq!(code, 0, "{out}");
        assert!(ShardManifest::path(&dbdir).exists(), "SHARDMAP persisted");

        // Later invocations need no --shards: the manifest is detected.
        let (code, out) = run_in(&dbdir, None, Command::Query("Context=Budget".into()));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("sharded money"));

        // Stats include the per-shard element in sharded mode.
        let (code, out) = run_in(&dbdir, None, Command::Stats);
        assert_eq!(code, 0);
        assert!(out.contains("documents:   1"));
        assert!(out.contains("<shards"));

        // Offline reshard 2 -> 3, then query again without --shards.
        let (code, out) = run_in(&dbdir, None, Command::ShardRebalance(3));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("2 -> 3 shards"));
        let (code, out) = run_in(&dbdir, None, Command::Query("Context=Budget".into()));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("sharded money"));

        // A conflicting explicit count is refused, not silently honored.
        let (code, out) = run_in(&dbdir, Some(5), Command::Ls);
        assert_eq!(code, 1);
        assert!(out.contains("rebalance"), "{out}");

        std::fs::remove_dir_all(&base).unwrap();
    }
}
