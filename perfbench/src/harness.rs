//! Store set-up, the closed-loop client driver, and answer checking.

use crate::client::Conn;
use netmark::{
    ingest_files, NetMark, NetMarkOptions, PipelineConfig, PipelineStats, QueryEngineOptions,
    QueryOutput, RawFile, SegmentedIndex, XdbBackend, XdbQuery,
};
use netmark_corpus::RawDoc;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub type Error = Box<dyn std::error::Error + Send + Sync>;
pub type Result<T> = std::result::Result<T, Error>;

/// The serial engine, result cache and context memo off, that every answer
/// is compared against.
pub fn reference_options() -> NetMarkOptions {
    NetMarkOptions {
        query: QueryEngineOptions {
            workers: 0,
            cache_capacity: 0,
            memo_capacity: 0,
            ..Default::default()
        },
        background_compaction: false,
        ..Default::default()
    }
}

pub fn raw_files(docs: &[RawDoc]) -> Vec<RawFile> {
    docs.iter()
        .map(|d| RawFile::new(d.name.clone(), d.content.clone()))
        .collect()
}

pub fn input_bytes(docs: &[RawDoc]) -> u64 {
    docs.iter().map(|d| d.content.len() as u64).sum()
}

/// Files per `ingest_files` call, in set-up and in the writer of
/// `ingest_while_querying`.
pub const INGEST_CHUNK: usize = 50;

/// Ingests one chunk through the drop-folder pipeline with one upmark
/// worker, so documents commit in input order and answers repeat for a
/// seed. The call ends with a WAL sync.
pub fn ingest_chunk(backend: &dyn XdbBackend, chunk: &[RawDoc]) -> Result<PipelineStats> {
    let cfg = PipelineConfig {
        workers: 1,
        ..Default::default()
    };
    Ok(ingest_files(backend, raw_files(chunk), &cfg)?)
}

/// Loads `docs` in `INGEST_CHUNK`-file calls.
pub fn load(backend: &dyn XdbBackend, docs: &[RawDoc]) -> Result<Vec<PipelineStats>> {
    docs.chunks(INGEST_CHUNK)
        .map(|c| ingest_chunk(backend, c))
        .collect()
}

/// Ingest throughput of the median call: documents per second inside
/// `ingest_files`, its final sync included. The median keeps one slow
/// fsync from deciding the figure.
pub fn ingest_rate(runs: &[PipelineStats]) -> f64 {
    let rates: Vec<f64> = runs.iter().map(PipelineStats::docs_per_sec).collect();
    crate::stats::median(&rates)
}

/// Opens a fresh default-configured store in `dir` and loads `docs`.
pub fn build_store(dir: &Path, docs: &[RawDoc]) -> Result<(Arc<NetMark>, Vec<PipelineStats>)> {
    let nm = Arc::new(NetMark::open(dir)?);
    let stats = load(&*nm, docs)?;
    nm.flush()?;
    Ok((nm, stats))
}

/// Waits until background compaction goes quiet: segment and compaction
/// counts unchanged across four polls 50 ms apart (the compactor wakes at
/// least every 100 ms).
pub fn settle(indexes: &[&SegmentedIndex]) {
    let reading = || -> Vec<(u64, u64)> {
        indexes
            .iter()
            .map(|ix| {
                let s = ix.stats();
                (s.compactions, s.segments)
            })
            .collect()
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut last = reading();
    let mut quiet = 0;
    while quiet < 4 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
        let now = reading();
        if now == last {
            quiet += 1;
        } else {
            quiet = 0;
            last = now;
        }
    }
}

/// Total bytes of regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A connection's request paths, in order; `None` ends it.
pub type Stream<'a> = Box<dyn FnMut() -> Option<String> + Send + 'a>;

/// Request ids of connection `c` in a phase start at `id_base + c * CONN_ID_STRIDE + 1`.
pub const CONN_ID_STRIDE: u64 = 100_000_000;

/// One completed (or failed) request, timed from the client.
#[derive(Debug, Clone)]
pub struct Sample {
    pub id: u64,
    pub path: String,
    /// Milliseconds since the run's epoch.
    pub start: f64,
    pub end: f64,
    /// 0 when the connection failed.
    pub status: u16,
    pub hash: u64,
    pub bytes: usize,
    pub starts_results: bool,
}

impl Sample {
    pub fn ms(&self) -> f64 {
        self.end - self.start
    }
}

/// Pause between an answer and the client's next request. Callers do work
/// between requests; a client that answers within microseconds races the
/// front end's check for a pipelined next request, and which side wins
/// decides whether the request waits for the parking sweep. A fixed pause
/// makes every run take the same side.
pub const THINK: Duration = Duration::from_millis(1);

/// Runs one closed-loop client per stream against `addr`: each sends its
/// next request `THINK` after the previous answer arrived, until
/// `deadline` passes, `stop` is set, or its stream ends.
pub fn closed_loop(
    addr: SocketAddr,
    epoch: Instant,
    id_base: u64,
    streams: Vec<Stream<'_>>,
    deadline: Option<Instant>,
    stop: &AtomicBool,
) -> Vec<Sample> {
    let ms = |t: Instant| t.saturating_duration_since(epoch).as_secs_f64() * 1e3;
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(c, mut next)| {
                scope.spawn(move || {
                    let mut conn = Conn::new(addr);
                    let mut out = Vec::new();
                    let mut seq = 0u64;
                    while !stop.load(Ordering::Acquire)
                        && deadline.is_none_or(|d| Instant::now() < d)
                    {
                        let Some(path) = next() else { break };
                        seq += 1;
                        let id = id_base + (c as u64) * CONN_ID_STRIDE + seq;
                        let t0 = Instant::now();
                        let reply = conn.get(&path, id);
                        let t1 = Instant::now();
                        let (status, hash, bytes, starts_results) = match reply {
                            Ok(r) => (
                                r.status,
                                fnv64(&r.body),
                                r.body.len(),
                                r.body.starts_with(b"<results"),
                            ),
                            Err(_) => (0, 0, 0, false),
                        };
                        out.push(Sample {
                            id,
                            path,
                            start: ms(t0),
                            end: ms(t1),
                            status,
                            hash,
                            bytes,
                            starts_results,
                        });
                        std::thread::sleep(THINK);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// A response as the servers render it, computed on `backend`.
pub fn expected(backend: &dyn XdbBackend, path: &str) -> (u16, Vec<u8>) {
    if let Some(qs) = path.strip_prefix("/xdb?") {
        return match XdbQuery::from_url(qs) {
            Ok(q) => match backend.run(&q) {
                Ok(QueryOutput::Results(rs)) => (200, rs.to_xml().into_bytes()),
                Ok(QueryOutput::Composed(n)) => (200, n.to_pretty_xml().into_bytes()),
                Err(e) => (400, e.to_string().into_bytes()),
            },
            Err(e) => (400, format!("bad xdb query: {e}").into_bytes()),
        };
    }
    if let Some(name) = path.strip_prefix("/docs/") {
        return match backend.reconstruct_named(&netmark_xdb::url_decode(name)) {
            Ok(Some(doc)) => (200, doc.root.to_pretty_xml().into_bytes()),
            Ok(None) => (404, b"no such document".to_vec()),
            Err(e) => (500, e.to_string().into_bytes()),
        };
    }
    (404, b"not found".to_vec())
}

/// Counts samples whose status is not 200 or whose body differs from the
/// reference answer for its path. `answer(path)` computes the reference;
/// distinct paths are answered on two threads once the timed phases are
/// over.
pub fn count_wrong(samples: &[Sample], answer: &(dyn Fn(&str) -> (u16, Vec<u8>) + Sync)) -> u64 {
    let mut paths: Vec<&str> = samples.iter().map(|s| s.path.as_str()).collect();
    paths.sort_unstable();
    paths.dedup();
    let (even, odd): (Vec<&str>, Vec<&str>) = {
        let (e, o): (Vec<_>, Vec<_>) = paths.iter().enumerate().partition(|(i, _)| i % 2 == 0);
        (
            e.into_iter().map(|(_, p)| *p).collect(),
            o.into_iter().map(|(_, p)| *p).collect(),
        )
    };
    let want: HashMap<&str, (u16, u64)> = std::thread::scope(|scope| {
        let a = scope.spawn(|| answer_all(&even, answer));
        let b = answer_all(&odd, answer);
        a.join()
            .expect("reference thread panicked")
            .into_iter()
            .chain(b)
            .collect()
    });
    samples
        .iter()
        .filter(|s| s.status != 200 || want.get(s.path.as_str()) != Some(&(200, s.hash)))
        .count() as u64
}

fn answer_all<'p>(
    paths: &[&'p str],
    answer: &(dyn Fn(&str) -> (u16, Vec<u8>) + Sync),
) -> Vec<(&'p str, (u16, u64))> {
    paths
        .iter()
        .map(|p| {
            let (st, body) = answer(p);
            (*p, (st, fnv64(&body)))
        })
        .collect()
}

/// Digest of the first `n` (path, body) pairs of the connection whose ids
/// start at `first_id`: the same seed must give the same digest.
pub fn stream_digest(samples: &[Sample], first_id: u64, n: u64) -> u64 {
    let mut head: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.id >= first_id && s.id < first_id + n)
        .collect();
    head.sort_by_key(|s| s.id);
    let mut bytes = Vec::new();
    for s in head {
        bytes.extend_from_slice(s.path.as_bytes());
        bytes.extend_from_slice(&s.hash.to_le_bytes());
    }
    fnv64(&bytes)
}
