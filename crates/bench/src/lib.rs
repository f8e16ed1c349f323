//! `netmark-bench`: the table/figure reproduction harness.
//!
//! One binary per evaluation artifact of the paper (see DESIGN.md §4):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig1_cost_scaling` | Fig 1 — integration cost vs consumers |
//! | `tbl1_assembly` | Table 1 — application assembly effort |
//! | `fig3_pipeline` | Fig 3 — ingestion pipeline throughput |
//! | `fig5_schema_less` | Fig 5 — schema-less vs shredded storage |
//! | `fig6_context_search` | Fig 6 — context/content search |
//! | `fig7_xslt` | Fig 7 — XDB query + XSLT composition |
//! | `fig8_federation` | Fig 8 — scalable federation |
//! | `fig12_c10k` | bounded front end: 10k keep-alive clients, connect storm |
//! | `fig13_shard_scaling` | shard-per-core store: scatter-gather scaling |
//! | `fig14_ranked_search` | ranked BM25 search across deployments |
//! | `fig15_ranked_topk` | ranked top-k: bounded collection |
//! | `sec4_top_employees` | §4 — NETMARK vs GAV head-to-head |
//! | `ablations` | design-choice ablations (ROWID, index granularity, buffer pool) |
//! | `reproduce_all` | runs everything above in sequence |
//!
//! End-to-end latency of the engine, the segmented index and MVCC reads
//! under ingest is measured by `perfbench/`, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use netmark::{NetMark, NetMarkOptions, QueryEngineOptions};
use netmark_corpus::{mixed, CorpusConfig, RawDoc};
use netmark_docformats::upmark;
use netmark_model::Document;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A scratch directory removed on drop.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates a fresh scratch directory under the system temp dir.
    pub fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!(
            "netmark-bench-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create scratch dir");
        TempDir { path }
    }

    /// The directory path.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    /// A sub-path inside the scratch directory.
    pub fn join(&self, sub: &str) -> PathBuf {
        self.path.join(sub)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Times one execution.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// Median wall time of `k` executions (the result of the last run is
/// returned for sanity checks).
pub fn median_of<R>(k: usize, mut f: impl FnMut() -> R) -> (R, Duration) {
    assert!(k >= 1);
    let mut times = Vec::with_capacity(k);
    let mut last = None;
    for _ in 0..k {
        let (r, d) = time(&mut f);
        times.push(d);
        last = Some(r);
    }
    times.sort();
    (last.expect("k >= 1"), times[times.len() / 2])
}

/// Opens a NETMARK instance in `dir` and ingests `docs`.
pub fn load_netmark(dir: &std::path::Path, docs: &[RawDoc]) -> NetMark {
    let nm = NetMark::open(dir).expect("open netmark");
    for d in docs {
        nm.insert_file(&d.name, &d.content).expect("ingest");
    }
    nm
}

/// Options with the result cache off. The cache is generation-stamped,
/// so an idle store keeps it warm while a streaming store has it
/// invalidated by every commit; figures about the execution path itself
/// run every query cold.
pub fn cold_options() -> NetMarkOptions {
    NetMarkOptions {
        query: QueryEngineOptions {
            cache_capacity: 0,
            ..QueryEngineOptions::default()
        },
        ..NetMarkOptions::default()
    }
}

/// Documents per ingest batch.
pub const BATCH: usize = 512;

/// Marker term for the planted needles; absent from the generated
/// corpus vocabulary (background documents containing it are dropped).
pub const MARKER: &str = "zugzwang";

/// Needle term frequencies, strictly decreasing: needle 0 must outrank
/// needle 1, and so on.
pub const NEEDLE_TF: &[usize] = &[32, 16, 8, 4, 2, 1];

/// The upmarked needle corpus: `docs` background documents (filtered to
/// never contain [`MARKER`]) plus one needle per [`NEEDLE_TF`] entry,
/// deterministically ordered so every deployment ingests the exact same
/// sequence.
pub fn needle_corpus(docs: usize, seed: u64) -> Vec<Document> {
    let mut out: Vec<Document> = mixed(&CorpusConfig::sized(docs).with_seed(seed))
        .iter()
        .filter(|d| !d.content.to_lowercase().contains(MARKER))
        .map(|d| upmark(&d.name, &d.content))
        .collect();
    for (i, &tf) in NEEDLE_TF.iter().enumerate() {
        let terms = vec![MARKER; tf].join(" ");
        out.push(upmark(
            &format!("needle-{i:02}.txt"),
            &format!("# Finding\n{terms} in test article {i}\n"),
        ));
    }
    out
}

/// Fixed-width table printer so every harness emits the same shape of
/// output the paper's tables/figures use.
pub struct TableWriter {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TableWriter {
    /// Starts a table with column headers.
    pub fn new(headers: &[&str]) -> TableWriter {
        TableWriter {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds one row (stringified cells).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity");
        self.rows.push(cells.to_vec());
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(c);
                for _ in c.len()..widths[i] {
                    out.push(' ');
                }
            }
            out.push('\n');
        };
        line(&self.headers, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(row, &widths, &mut out);
        }
        out
    }

    /// Prints the rendered table.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// The `p`-th percentile (0.0–1.0) of a latency sample, by
/// nearest-rank on the sorted slice. Sorts `samples` in place.
pub fn percentile(samples: &mut [Duration], p: f64) -> Duration {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    assert!((0.0..=1.0).contains(&p), "p out of range");
    samples.sort_unstable();
    let rank = ((p * samples.len() as f64).ceil() as usize).max(1) - 1;
    samples[rank.min(samples.len() - 1)]
}

/// Formats a duration in adaptive units.
pub fn fmt_dur(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}us")
    } else if us < 1_000_000 {
        format!("{:.2}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

/// Prints a standard experiment banner.
pub fn banner(id: &str, paper_artifact: &str, claim: &str) {
    println!("\n==================================================================");
    println!("{id} — {paper_artifact}");
    println!("paper claim: {claim}");
    println!("==================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_writer_aligns() {
        let mut t = TableWriter::new(&["a", "bbbb"]);
        t.row(&["xxxxx".into(), "y".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].starts_with("a    "));
        assert!(lines[2].starts_with("xxxxx"));
    }

    #[test]
    fn median_is_stable() {
        let (_, d) = median_of(5, || std::thread::sleep(Duration::from_micros(100)));
        assert!(d >= Duration::from_micros(50));
    }

    #[test]
    fn tempdir_cleans_up() {
        let p;
        {
            let t = TempDir::new("x");
            p = t.path().to_path_buf();
            assert!(p.exists());
        }
        assert!(!p.exists());
    }

    #[test]
    fn percentile_nearest_rank() {
        let mut v: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
        assert_eq!(percentile(&mut v, 0.50), Duration::from_micros(50));
        assert_eq!(percentile(&mut v, 0.99), Duration::from_micros(99));
        assert_eq!(percentile(&mut v, 1.0), Duration::from_micros(100));
        assert_eq!(percentile(&mut v, 0.0), Duration::from_micros(1));
        let mut one = vec![Duration::from_micros(7)];
        assert_eq!(percentile(&mut one, 0.99), Duration::from_micros(7));
    }

    #[test]
    fn fmt_dur_units() {
        assert_eq!(fmt_dur(Duration::from_micros(5)), "5us");
        assert_eq!(fmt_dur(Duration::from_millis(5)), "5.00ms");
        assert_eq!(fmt_dur(Duration::from_secs(5)), "5.00s");
    }
}
