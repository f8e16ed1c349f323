//! The NETMARK DAEMON: drop-folder ingestion.
//!
//! "Users insert new documents (in any format such as Word, PDF, HTML, XML
//! or others) into NETMARK by simply dragging the documents into a
//! (NETMARK) desktop folder. The 'NETMARK DAEMON' periodically picks up
//! these documents, passes them onto the 'SGML Parser', which converts the
//! documents into XML" (§2.1.2, Fig 3).
//!
//! The daemon polls a folder; new files are ingested, modified files are
//! re-ingested: a file name is a key, so the store replaces the old
//! version in the commit that writes the new one. A file is read only once two
//! consecutive sweeps see the same size and mtime, so one still being
//! written waits for the sweep after its writer stops. Files stay in
//! place — the folder *is* the user's working directory.
//!
//! Each sweep feeds every changed file through the staged ingestion
//! pipeline ([`netmark::pipeline`]): files are upmarked by parallel
//! workers and committed in batched transactions, so a folder full of new
//! documents costs a handful of WAL fsyncs instead of one per file.
//! Failures are isolated per file — an unreadable or unparseable document
//! is counted in [`DaemonStats::errors`] and never blocks its batchmates.

use netmark::{ingest_files, PipelineConfig, RawFile, XdbBackend};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

netmark_model::stats! {
    /// Ingestion counters.
    pub struct DaemonStats => "daemon" {
        /// Files ingested for the first time.
        ingested: u64 = sum("ingested"),
        /// Files re-ingested after modification.
        reingested: u64 = sum("reingested"),
        /// Files that failed to read or ingest.
        errors: u64 = sum("errors"),
    }
    struct Counters => atomic;
}

/// A running drop-folder daemon. Dropping the handle stops it.
pub struct DaemonHandle {
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
    stats: Arc<Counters>,
}

impl DaemonHandle {
    /// Snapshot of ingestion counters.
    pub fn stats(&self) -> DaemonStats {
        self.stats.snapshot()
    }

    /// Stops the polling loop and joins the thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        if self.join.is_some() {
            self.shutdown();
        }
    }
}

/// A file's `(size, mtime)`.
type FileState = (u64, std::time::SystemTime);

/// What the sweeps know of one file.
#[derive(Debug, Default)]
struct Watch {
    /// Its state at the previous sweep.
    observed: Option<FileState>,
    /// The state it was last read at (ingested or failed).
    read: Option<FileState>,
}

type Seen = HashMap<PathBuf, Watch>;

/// One sweep: collect every new/modified readable file that the previous
/// sweep saw in the same state (per-file read errors are counted and
/// skipped), then run the whole set through the staged pipeline in batched
/// transactions.
fn sweep(
    nm: &dyn XdbBackend,
    folder: &Path,
    seen: &mut Seen,
    counters: &Counters,
    cfg: &PipelineConfig,
) {
    let Ok(entries) = std::fs::read_dir(folder) else {
        return;
    };
    let mut files: Vec<RawFile> = Vec::new();
    // (name, is_reingest, the live version's doc id) per collected file,
    // for counter attribution.
    let mut kinds: Vec<(String, bool, Option<i64>)> = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path();
        if !path.is_file() {
            continue;
        }
        let Ok(meta) = entry.metadata() else { continue };
        let size = meta.len();
        let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
        let state = (size, mtime);
        let watch = seen.entry(path.clone()).or_default();
        if watch.read == Some(state) {
            continue;
        }
        // Changed since the previous sweep: the writer may not be done.
        if watch.observed.replace(state) != Some(state) {
            continue;
        }
        let is_reingest = watch.read.replace(state).is_some();
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let Ok(content) = std::fs::read_to_string(&path) else {
            counters.errors.fetch_add(1, Ordering::Relaxed);
            continue;
        };
        let live = match is_reingest {
            true => nm.document_by_name(&name).ok().flatten().map(|d| d.doc_id),
            false => None,
        };
        files.push(RawFile::new(name.clone(), content));
        kinds.push((name, is_reingest, live));
    }
    if files.is_empty() {
        return;
    }
    match ingest_files(nm, files, cfg) {
        Ok(stats) => {
            let failed = stats.ingest.errors;
            counters.errors.fetch_add(failed, Ordering::Relaxed);
            for (name, is_reingest, live) in &kinds {
                // Some files were dropped by per-file isolation: check which
                // documents landed (a failed re-ingest leaves the old one).
                let landed = failed == 0
                    || matches!(nm.document_by_name(name), Ok(Some(d)) if Some(d.doc_id) != *live);
                let counter = match is_reingest {
                    true => &counters.reingested,
                    false => &counters.ingested,
                };
                if landed {
                    counter.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        Err(_) => {
            counters
                .errors
                .fetch_add(kinds.len() as u64, Ordering::Relaxed);
        }
    }
}

/// Starts the daemon polling `folder` every `interval` with default
/// pipeline tuning.
pub fn watch_folder(nm: Arc<dyn XdbBackend>, folder: &Path, interval: Duration) -> DaemonHandle {
    watch_folder_with(nm, folder, interval, PipelineConfig::default())
}

/// Starts the daemon with explicit pipeline tuning (worker count, batch
/// size, queue bound).
pub fn watch_folder_with(
    nm: Arc<dyn XdbBackend>,
    folder: &Path,
    interval: Duration,
    cfg: PipelineConfig,
) -> DaemonHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(Counters::default());
    let stop2 = Arc::clone(&stop);
    let stats2 = Arc::clone(&stats);
    let folder = folder.to_path_buf();
    let join = std::thread::spawn(move || {
        let mut seen = Seen::new();
        while !stop2.load(Ordering::SeqCst) {
            sweep(&*nm, &folder, &mut seen, &stats2, &cfg);
            // Sleep in small slices so stop() is responsive.
            let mut remaining = interval;
            while !stop2.load(Ordering::SeqCst) && remaining > Duration::ZERO {
                let step = remaining.min(Duration::from_millis(20));
                std::thread::sleep(step);
                remaining = remaining.saturating_sub(step);
            }
        }
    });
    DaemonHandle {
        stop,
        join: Some(join),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmark::NetMark;
    use netmark_xdb::XdbQuery;

    fn wait_until(mut cond: impl FnMut() -> bool, max_ms: u64) -> bool {
        for _ in 0..max_ms / 10 {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        cond()
    }

    #[test]
    fn picks_up_dropped_files() {
        let base = std::env::temp_dir().join(format!("netmark-daemon-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let drop_dir = base.join("dropbox");
        std::fs::create_dir_all(&drop_dir).unwrap();
        let nm = Arc::new(NetMark::open(&base.join("store")).unwrap());

        let handle = watch_folder(nm.clone(), &drop_dir, Duration::from_millis(30));
        std::fs::write(drop_dir.join("plan.txt"), "# Budget\ntwo million\n").unwrap();
        assert!(
            wait_until(|| handle.stats().ingested >= 1, 3000),
            "daemon ingested the dropped file"
        );
        let rs = nm.query(&XdbQuery::context("Budget")).unwrap();
        assert_eq!(rs.len(), 1);

        // Modify the file → re-ingest replaces the old version.
        std::thread::sleep(Duration::from_millis(50));
        std::fs::write(drop_dir.join("plan.txt"), "# Budget\nthree million\n").unwrap();
        assert!(
            wait_until(|| handle.stats().reingested >= 1, 3000),
            "daemon re-ingested the modified file"
        );
        assert!(wait_until(
            || {
                let rs = nm.query(&XdbQuery::context("Budget")).unwrap();
                rs.len() == 1 && rs.hits[0].content_text().contains("three")
            },
            3000
        ));

        handle.stop();
        std::fs::remove_dir_all(&base).unwrap();
    }

    /// A file changed since the previous sweep is left for the next one,
    /// so a half-written file is never read.
    #[test]
    fn waits_for_a_file_to_settle() {
        let base = std::env::temp_dir().join(format!("netmark-daemon3-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let drop_dir = base.join("dropbox");
        std::fs::create_dir_all(&drop_dir).unwrap();
        let nm = NetMark::open(&base.join("store")).unwrap();
        let (counters, cfg) = (Counters::default(), PipelineConfig::default());
        let mut seen = Seen::new();
        let file = drop_dir.join("plan.txt");
        std::fs::write(&file, "# Budget\ntwo million\n").unwrap();
        sweep(&nm, &drop_dir, &mut seen, &counters, &cfg);
        assert_eq!(counters.snapshot().ingested, 0, "first sight waits");
        assert!(nm.list_documents().unwrap().is_empty());
        sweep(&nm, &drop_dir, &mut seen, &counters, &cfg);
        assert_eq!(counters.snapshot().ingested, 1, "unchanged, so ingested");
        sweep(&nm, &drop_dir, &mut seen, &counters, &cfg);
        assert_eq!(nm.list_documents().unwrap().len(), 1, "ingested once");

        // A rewrite waits one sweep too, then replaces the old version.
        std::fs::write(&file, "# Budget\nthree million dollars\n").unwrap();
        sweep(&nm, &drop_dir, &mut seen, &counters, &cfg);
        assert_eq!(counters.snapshot().reingested, 0);
        sweep(&nm, &drop_dir, &mut seen, &counters, &cfg);
        assert_eq!(counters.snapshot().reingested, 1);
        let rs = nm.query(&XdbQuery::context("Budget")).unwrap();
        assert_eq!(rs.len(), 1);
        assert!(rs.hits[0].content_text().contains("three"));
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn unreadable_folder_is_harmless() {
        let base = std::env::temp_dir().join(format!("netmark-daemon2-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let nm = Arc::new(NetMark::open(&base.join("store")).unwrap());
        // Watch a folder that doesn't exist.
        let handle = watch_folder(nm, &base.join("ghost"), Duration::from_millis(10));
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(handle.stats().ingested, 0);
        handle.stop();
        std::fs::remove_dir_all(&base).unwrap();
    }
}
