//! A shared ingest service: the HTTP PUT path riding the batch pipeline.
//!
//! Uploads are queued onto a bounded work queue and committed by one
//! background writer that drains the queue into batches — concurrent PUTs
//! that arrive within the same drain share a single store transaction (and
//! fsync), exactly like the drop-folder pipeline. The bound gives
//! backpressure: when uploads outrun the writer, `submit` blocks instead
//! of buffering unboundedly.
//!
//! Failures are isolated per upload: a batch that fails to commit is
//! retried one document at a time, and only the offending uploads see an
//! error response.

use netmark::pipeline::BoundedQueue;
use netmark::{commit_batch, IngestReport, PipelineConfig, RawFile, XdbBackend};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::time::Instant;

struct Job {
    file: RawFile,
    reply: SyncSender<Result<IngestReport, String>>,
}

/// A running ingest service. Dropping it stops the writer thread.
pub struct IngestService {
    queue: Arc<BoundedQueue<Job>>,
    writer: Option<std::thread::JoinHandle<()>>,
}

impl IngestService {
    /// Starts the writer thread committing into `nm`.
    pub fn start(nm: Arc<dyn XdbBackend>, cfg: PipelineConfig) -> IngestService {
        let queue = Arc::new(BoundedQueue::new(cfg.queue_capacity));
        let q2 = Arc::clone(&queue);
        let batch_docs = cfg.batch_docs.max(1);
        let writer = std::thread::spawn(move || {
            while let Some(jobs) = q2.pop_batch(batch_docs) {
                commit_jobs(&*nm, jobs);
            }
        });
        IngestService {
            queue,
            writer: Some(writer),
        }
    }

    /// Queues one upload and blocks until its batch commits. Returns the
    /// ingest report, or the error message for this upload alone.
    pub fn submit(&self, name: &str, content: &str) -> Result<IngestReport, String> {
        let (reply, rx) = sync_channel(1);
        let accepted = self.queue.push(Job {
            file: RawFile::new(name, content),
            reply,
        });
        if !accepted {
            return Err("ingest service is shut down".to_string());
        }
        rx.recv()
            .unwrap_or_else(|_| Err("ingest service dropped the upload".to_string()))
    }
}

impl Drop for IngestService {
    fn drop(&mut self) {
        self.queue.close();
        if let Some(w) = self.writer.take() {
            let _ = w.join();
        }
    }
}

/// Upmarks and commits `jobs` as one batch through the pipeline's
/// [`commit_batch`], answering every reply channel.
fn commit_jobs(nm: &dyn XdbBackend, jobs: Vec<Job>) {
    nm.ingest_metrics().observe_queue_depth(jobs.len());
    let t0 = Instant::now();
    let docs: Vec<_> = jobs
        .iter()
        .map(|j| netmark_docformats::upmark(&j.file.name, &j.file.content))
        .collect();
    nm.ingest_metrics().record_upmark(t0.elapsed());
    for (job, outcome) in jobs.into_iter().zip(commit_batch(nm, &docs)) {
        let _ = job.reply.send(outcome.map_err(|e| e.to_string()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmark::NetMark;
    use netmark_xdb::XdbQuery;

    #[test]
    fn concurrent_submits_share_batches() {
        let dir = std::env::temp_dir().join(format!("netmark-ingestsvc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let nm = Arc::new(NetMark::open(&dir).unwrap());
        let svc = Arc::new(IngestService::start(nm.clone(), PipelineConfig::default()));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let svc = Arc::clone(&svc);
                std::thread::spawn(move || {
                    svc.submit(
                        &format!("doc{i}.txt"),
                        &format!("# Section{i}\ncontent number {i}\n"),
                    )
                })
            })
            .collect();
        for h in handles {
            let report = h.join().unwrap().expect("upload succeeds");
            assert!(report.node_count > 0);
        }
        assert_eq!(nm.list_documents().unwrap().len(), 8);
        assert_eq!(nm.query(&XdbQuery::context("Section3")).unwrap().len(), 1);
        let st = nm.stats().unwrap();
        assert_eq!(st.ingest.documents, 8);
        assert!(
            st.ingest.batches <= 8,
            "batching never exceeds one txn per doc"
        );
        drop(svc);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn uploads_of_one_name_in_one_batch_keep_the_last() {
        let dir = std::env::temp_dir().join(format!("netmark-ingestsvc3-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let nm = NetMark::open(&dir).unwrap();
        let (replies, jobs): (Vec<_>, Vec<_>) = ["first", "second"]
            .into_iter()
            .map(|word| {
                let (reply, rx) = sync_channel(1);
                let file = RawFile::new("plan.txt", format!("# Budget\n{word}\n"));
                (rx, Job { file, reply })
            })
            .unzip();
        commit_jobs(&nm, jobs);
        for rx in replies {
            assert!(rx.recv().unwrap().is_ok());
        }
        assert_eq!(nm.list_documents().unwrap().len(), 1);
        let rs = nm.query(&XdbQuery::context("Budget")).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.hits[0].content_text(), "second");
        assert_eq!(nm.stats().unwrap().ingest.batches, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn submit_after_shutdown_errors() {
        let dir = std::env::temp_dir().join(format!("netmark-ingestsvc2-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let nm = Arc::new(NetMark::open(&dir).unwrap());
        let mut svc = IngestService::start(nm.clone(), PipelineConfig::default());
        assert!(svc.submit("a.txt", "# A\nbody\n").is_ok());
        // Simulate shutdown without dropping (close + join).
        svc.queue.close();
        if let Some(w) = svc.writer.take() {
            w.join().unwrap();
        }
        assert!(svc.submit("b.txt", "# B\nbody\n").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
