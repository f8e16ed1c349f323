//! NETMARK benchmark: one named workload over real loopback HTTP.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Set-up builds the stores from seeded `netmark-corpus` inputs, flushes,
//! lets background compaction go quiet and warms up. An untraced run sets
//! up several times (the first set-up serves the run, the others come after
//! it) and `setup_s` is the median. The timed phase then drives closed-loop
//! clients (each waits for its answer before sending the next request) for
//! `--seconds`. Every answer is checked against a serial, cache-off
//! reference engine opened on the same store afterwards. The last stdout
//! line is one JSON object: end-to-end metrics with `--trace 0`, per-layer
//! metrics with `--trace 1`. A traced run spends its first half untraced
//! (the overhead baseline) and its second half behind the timing wrappers
//! of `trace.rs`.

mod client;
mod federated;
mod harness;
mod layers;
mod stats;
mod streams;
mod trace;

use harness::{closed_loop, Result, Sample, Stream};
use netmark::{NetMark, PipelineStats, XdbBackend};
use netmark_corpus::{mixed, CorpusConfig, RawDoc};
use netmark_netserve::{Frontend, FrontendConfig, FrontendStats};
use netmark_webdav::{serve_with, HttpService, IngestService};
use stats::{Metric, Report};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use streams::{lookup_items, search_query, stream_seed, Rng, Terms, Zipf};
use trace::{StoreRoutes, TracedBackend, TracedService, Tracer};

/// What one workload loads and how it drives it.
pub struct Spec {
    pub name: &'static str,
    /// Documents in the (main) store.
    pub docs: usize,
    /// Reported tail percentile (the highest with ≥10 samples beyond it at
    /// the benchmark's run length; see README.md).
    pub tail: f64,
    /// Warm-up requests per connection at the end of each set-up.
    pub warmup: usize,
}

const SPECS: &[Spec] = &[
    Spec {
        name: "search_heavy",
        docs: 5000,
        tail: 90.0,
        warmup: 10,
    },
    Spec {
        name: "lookup_light",
        docs: 1000,
        tail: 99.0,
        warmup: 100,
    },
    Spec {
        name: "ingest_while_querying",
        docs: 2000,
        tail: 90.0,
        warmup: 10,
    },
    Spec {
        name: "federated_search",
        docs: 800,
        tail: 95.0,
        warmup: 10,
    },
];

/// Closed-loop client connections of every workload (the development box
/// has two cores).
const CONNS: usize = 2;
/// Set-ups per untraced run (`setup_s` is their median).
const SETUPS: usize = 3;

/// The period at which the writer of `ingest_while_querying` starts an
/// `INGEST_CHUNK`-file call.
const INGEST_PERIOD: Duration = Duration::from_millis(1000);
/// Fresh files generated for the writer per second of run length.
const FRESH_FILES_PER_SECOND: usize = 75;
/// Popular-set size of `lookup_light`.
const LOOKUP_ITEMS: usize = 300;
/// Requests of connection 0 covered by the per-seed digest.
const DIGEST_REQUESTS: u64 = 16;
/// Request-id bases: warm-up, untraced phase, traced phase.
const WARM_IDS: u64 = 1_000_000_000;
const PHASE_A_IDS: u64 = 2_000_000_000;
const PHASE_B_IDS: u64 = 3_000_000_000;

/// Per-seed digests of connection 0's first requests and answers, as
/// `workload<TAB>seed<TAB>digest` lines, read from the checkout root.
const DIGESTS: &str = "perfbench/digests.tsv";

/// Percentiles a tail may be reported at.
const TAIL_CANDIDATES: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(".bench_work");
    let work = root.join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    let outcome = std::fs::create_dir_all(&work)
        .map_err(Into::into)
        .and_then(|()| run(&args, &work));
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(&root);
    match outcome {
        Ok(report) => println!("{}", report.to_json()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args, work: &Path) -> Result<Report> {
    let spec = SPECS
        .iter()
        .find(|s| s.name == args.workload)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    if spec.name == "federated_search" {
        federated::run(spec, args, work)
    } else {
        store_workload(spec, args, work)
    }
}

/// What the end-to-end side of a run measured, before it becomes a report.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub disk_bytes: u64,
    pub input_bytes: u64,
    /// Timed-phase samples of the untraced phase.
    pub untraced: Vec<Sample>,
    pub untraced_secs: f64,
    /// Peak resident set at the end of the timed phase.
    pub peak_rss_mb: f64,
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(spec: &Spec, o: &Outcome) -> BTreeMap<String, Metric> {
    let mut lat: Vec<f64> = o
        .untraced
        .iter()
        .filter(|s| s.status == 200)
        .map(Sample::ms)
        .collect();
    lat.sort_by(f64::total_cmp);
    let beyond = stats::samples_beyond(lat.len(), spec.tail);
    let supported = stats::highest_supported_percentile(lat.len(), &TAIL_CANDIDATES, 10);
    eprintln!(
        "perfbench: {} samples, {beyond} beyond the reported p{}; highest with 10 beyond: {supported:?}",
        lat.len(),
        spec.tail
    );
    let mut m = BTreeMap::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        m.insert(name.to_string(), Metric { value, unit });
    };
    put("setup_s", stats::median(&o.setup_s), "s");
    put("query_p50_ms", stats::percentile(&lat, 50.0), "ms");
    put("query_tail_ms", stats::percentile(&lat, spec.tail), "ms");
    put("query_per_s", lat.len() as f64 / o.untraced_secs, "1/s");
    put(
        "disk_bytes_per_input_byte",
        stats::ratio(o.disk_bytes as f64, o.input_bytes as f64),
        "ratio",
    );
    put("peak_rss_mb", o.peak_rss_mb, "MiB");
    m
}

/// Checks connection 0's opening digest against the recorded one, when
/// the seed has a record. Returns whether it matched (or had no record).
pub fn check_digest(workload: &str, seed: u64, samples: &[Sample]) -> bool {
    let got = harness::stream_digest(samples, PHASE_A_IDS + 1, DIGEST_REQUESTS);
    eprintln!("perfbench: digest\t{workload}\t{seed}\t{got:016x}");
    let recorded = std::fs::read_to_string(DIGESTS).unwrap_or_default();
    let want = recorded.lines().find_map(|l| {
        let mut f = l.split('\t');
        (f.next() == Some(workload) && f.next() == Some(&seed.to_string()))
            .then(|| f.next().unwrap_or("").to_string())
    });
    match want {
        Some(w) if w != format!("{got:016x}") => {
            eprintln!("perfbench: digest mismatch for {workload} seed {seed}: recorded {w}");
            false
        }
        _ => true,
    }
}

/// Writes a traced run's spans beside its stores, under `.bench_work/`
/// (kept after the run).
pub fn write_spans(tracer: &Tracer, workload: &str, seed: u64) -> Result<()> {
    let path = Path::new(".bench_work").join(format!("spans-{workload}-{seed}.tsv"));
    tracer.write_to(&path)?;
    eprintln!(
        "perfbench: {} spans written to {}",
        tracer.spans().len(),
        path.display()
    );
    Ok(())
}

pub fn report(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Metric>,
) -> Report {
    Report {
        correct: correct && failed == 0,
        attempted: attempted.max(1),
        failed,
        metrics,
    }
}

/// Builds connection streams for a phase; `salt` separates warm-up from
/// timed streams.
fn store_streams<'a>(
    spec: &Spec,
    seed: u64,
    salt: u64,
    limit: Option<usize>,
    items: &'a [String],
) -> Vec<Stream<'a>> {
    let zipf = Arc::new(Zipf::new(items.len().max(1)));
    (0..CONNS)
        .map(|c| {
            let mut rng = Rng::new(stream_seed(seed, salt, c));
            let mut terms = Terms::new(&mut rng);
            let mut n = 0;
            let lookup = spec.name == "lookup_light";
            let zipf = Arc::clone(&zipf);
            Box::new(move || {
                if limit.is_some_and(|l| n >= l) {
                    return None;
                }
                n += 1;
                Some(if lookup {
                    items[zipf.sample(&mut rng)].clone()
                } else {
                    search_query(n, &mut terms)
                })
            }) as Stream<'a>
        })
        .collect()
}

/// Warm-up: a fixed number of requests per connection; every answer must
/// be a 200.
pub fn warm_up(addr: std::net::SocketAddr, streams: Vec<Stream<'_>>) -> Result<()> {
    let stop = AtomicBool::new(false);
    let samples = closed_loop(addr, Instant::now(), WARM_IDS, streams, None, &stop);
    match samples.iter().find(|s| s.status != 200) {
        Some(s) => Err(format!("warm-up request {} answered {}", s.path, s.status).into()),
        None => Ok(()),
    }
}

/// Ingests `files` in `INGEST_CHUNK`-file calls, starting one every
/// `INGEST_PERIOD` (or as soon as the previous one commits, when it took
/// longer), until `deadline` passes and the last call has committed.
/// Returns the names committed and the per-call pipeline stats.
fn write_until(
    backend: &dyn XdbBackend,
    files: &[RawDoc],
    deadline: Instant,
) -> Result<(Vec<String>, Vec<PipelineStats>)> {
    let mut done = 0;
    let mut runs = Vec::new();
    let mut next = Instant::now();
    while next < deadline && done < files.len() {
        std::thread::sleep(next.saturating_duration_since(Instant::now()));
        next += INGEST_PERIOD;
        let chunk = &files[done..(done + harness::INGEST_CHUNK).min(files.len())];
        runs.push(harness::ingest_chunk(backend, chunk)?);
        done += chunk.len();
    }
    std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
    Ok((files[..done].iter().map(|d| d.name.clone()).collect(), runs))
}

/// One timed phase: clients until `secs` pass, or, with a writer, until
/// `secs` pass and the writer's last call has committed.
struct Phase {
    samples: Vec<Sample>,
    secs: f64,
    ingested: Vec<String>,
    runs: Vec<PipelineStats>,
}

fn phase(
    addr: std::net::SocketAddr,
    epoch: Instant,
    id_base: u64,
    streams: Vec<Stream<'_>>,
    secs: f64,
    writer: Option<(&dyn XdbBackend, &[RawDoc])>,
) -> Result<Phase> {
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(secs);
    let (samples, written) = std::thread::scope(|scope| {
        let w = writer.map(|(backend, files)| {
            let stop = &stop;
            scope.spawn(move || {
                let r = write_until(backend, files, deadline);
                stop.store(true, Ordering::Release);
                r
            })
        });
        let until = if w.is_some() { None } else { Some(deadline) };
        let samples = closed_loop(addr, epoch, id_base, streams, until, &stop);
        (
            samples,
            w.map(|h| h.join().expect("writer thread panicked")),
        )
    });
    let secs = t0.elapsed().as_secs_f64();
    let (ingested, runs) = match written {
        Some(r) => r?,
        None => (Vec::new(), Vec::new()),
    };
    Ok(Phase {
        samples,
        secs,
        ingested,
        runs,
    })
}

/// One set-up of a store workload: the store, its server, the loading
/// pipeline's stats and the seconds it all took.
struct StoreSetUp {
    dir: PathBuf,
    nm: Arc<NetMark>,
    server: netmark_webdav::ServerHandle,
    ingest: Vec<PipelineStats>,
    secs: f64,
}

/// `search_heavy`, `lookup_light` and `ingest_while_querying`: one store
/// behind the NETMARK HTTP server.
fn store_workload(spec: &Spec, args: &Args, work: &Path) -> Result<Report> {
    let epoch = Instant::now();
    let seed = args.seed;
    let docs = mixed(&CorpusConfig::sized(spec.docs).with_seed(seed));
    let writes = spec.name == "ingest_while_querying";
    let fresh: Vec<RawDoc> = if writes {
        mixed(
            &CorpusConfig::sized(FRESH_FILES_PER_SECOND * args.seconds.ceil() as usize)
                .with_seed(seed ^ 0xf4e5_11e5),
        )
        .into_iter()
        .enumerate()
        .map(|(i, d)| RawDoc {
            name: format!("live-{i:05}-{}", d.name),
            content: d.content,
        })
        .collect()
    } else {
        Vec::new()
    };
    let items = if spec.name == "lookup_light" {
        lookup_items(&docs, seed, LOOKUP_ITEMS)
    } else {
        Vec::new()
    };

    // The first set-up serves the run; the others, made after the timed
    // phases and the checks, only feed `setup_s`'s median.
    let set_up = |rep: usize| -> Result<StoreSetUp> {
        let dir = work.join(format!("store{rep}"));
        let t = Instant::now();
        let (nm, ps) = harness::build_store(&dir, &docs)?;
        harness::settle(&[nm.text_index()]);
        let server = serve_with(nm.clone(), "127.0.0.1:0", FrontendConfig::default())?;
        warm_up(
            server.addr(),
            store_streams(spec, seed, 1 + rep as u64, Some(spec.warmup), &items),
        )?;
        Ok(StoreSetUp {
            dir,
            nm,
            server,
            ingest: ps,
            secs: t.elapsed().as_secs_f64(),
        })
    };
    let StoreSetUp {
        dir,
        nm,
        server,
        ingest: setup_stats,
        secs: first_setup,
    } = set_up(0)?;
    let mut setup_s = vec![first_setup];
    let setup_disk = harness::dir_bytes(&dir);

    let streams = store_streams(spec, seed, 0, None, &items);
    let secs_a = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let writer = writes.then_some((&*nm as &dyn XdbBackend, &fresh[..]));
    let a = phase(server.addr(), epoch, PHASE_A_IDS, streams, secs_a, writer)?;
    let peak_rss_mb = harness::peak_rss_mb();
    server.stop();

    let mut traced = None;
    if args.trace {
        let tracer = Tracer::new(epoch);
        let backend = Arc::new(TracedBackend {
            nm: nm.clone(),
            tracer: tracer.clone(),
        });
        let routes = StoreRoutes {
            backend: backend.clone(),
            ingest: IngestService::start(backend.clone(), netmark::PipelineConfig::default()),
        };
        let service = TracedService {
            inner: HttpService::new(trace::traced_handler(routes, tracer.clone())),
            tracer: tracer.clone(),
        };
        let fe_stats = FrontendStats::shared();
        let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
        let fe = Frontend::start(
            listener,
            service,
            FrontendConfig::default(),
            fe_stats.clone(),
        )?;
        let stores = [&*nm];
        let before = layers::Counters::read(&stores, fe_stats.snapshot());
        let monitor = layers::Monitor::start(vec![nm.clone()], fe_stats.clone());
        let rest = &fresh[a.ingested.len()..];
        let writer = writes.then_some((&*backend as &dyn XdbBackend, rest));
        // A stream of its own: replaying the untraced phase's requests
        // would hit the result cache.
        let streams = store_streams(spec, seed, 0x7ace, None, &items);
        let b = phase(
            fe.addr(),
            epoch,
            PHASE_B_IDS,
            streams,
            args.seconds / 2.0,
            writer,
        )?;
        let peaks = monitor.stop();
        let after = layers::Counters::read(&stores, fe_stats.snapshot());
        fe.stop();
        let ingest_runs = if writes { b.runs.clone() } else { setup_stats };
        let m = layers::per_layer(&layers::LayerInput {
            untraced: &a.samples,
            traced: &b.samples,
            tracer: &tracer,
            before: &before,
            after: &after,
            peaks,
            ingest_runs: &ingest_runs,
            shard_queries: &[],
            federated: false,
        });
        write_spans(&tracer, spec.name, seed)?;
        traced = Some((m, b));
    }

    // Final state: flush, then measure the store on disk.
    nm.flush()?;
    let (phase_b_samples, phase_b_names) = match &traced {
        Some((_, b)) => (b.samples.clone(), b.ingested.clone()),
        None => (Vec::new(), Vec::new()),
    };
    let ingested: Vec<String> = a.ingested.iter().chain(&phase_b_names).cloned().collect();
    let disk_bytes = if writes {
        harness::dir_bytes(&dir)
    } else {
        setup_disk
    };
    let ingested_bytes: u64 = fresh[..ingested.len()]
        .iter()
        .map(|d| d.content.len() as u64)
        .sum();
    let input_bytes = harness::input_bytes(&docs) + ingested_bytes;
    let all: Vec<Sample> = a.samples.iter().chain(&phase_b_samples).cloned().collect();

    // Checks. The served engine answers a sample of the reader's queries on
    // the final state now; the reference engine answers them after reopen.
    let mut attempted = all.len() as u64;
    let mut failed = 0;
    let mut final_paths: Vec<String> = Vec::new();
    for s in &all {
        if final_paths.len() < 24 && !final_paths.contains(&s.path) {
            final_paths.push(s.path.clone());
        }
    }
    let served_final: Vec<(u16, u64)> = if writes {
        final_paths
            .iter()
            .map(|p| {
                let (st, body) = harness::expected(&*nm, p);
                (st, harness::fnv64(&body))
            })
            .collect()
    } else {
        Vec::new()
    };
    let nm = Arc::try_unwrap(nm).map_err(|_| "store still shared after the servers stopped")?;
    drop(nm);
    let reference = NetMark::open_with(&dir, harness::reference_options())?;
    let mut digest_ok = true;
    if writes {
        // Answers during ingest: a 200 carrying a result document.
        failed += all
            .iter()
            .filter(|s| s.status != 200 || !s.starts_results)
            .count() as u64;
        for (p, served) in final_paths.iter().zip(&served_final) {
            let (st, body) = harness::expected(&reference, p);
            attempted += 1;
            if *served != (st, harness::fnv64(&body)) || st != 200 {
                failed += 1;
            }
        }
        let listed: std::collections::HashSet<String> = reference
            .list_documents()?
            .into_iter()
            .map(|d| d.file_name)
            .collect();
        for name in &ingested {
            attempted += 1;
            let ok = listed.contains(name)
                && matches!(XdbBackend::reconstruct_named(&reference, name), Ok(Some(d)) if &d.name == name);
            if !ok {
                failed += 1;
            }
        }
    } else {
        let t = Instant::now();
        failed += harness::count_wrong(&all, &|p| harness::expected(&reference, p));
        eprintln!(
            "perfbench: checked {} answers in {:.1} s",
            all.len(),
            t.elapsed().as_secs_f64()
        );
        digest_ok = check_digest(spec.name, seed, &a.samples);
    }
    drop(reference);

    let metrics = match traced {
        Some((m, _)) => m,
        None => {
            for rep in 1..SETUPS {
                let again = set_up(rep)?;
                setup_s.push(again.secs);
                again.server.stop();
                drop(again.nm);
                std::fs::remove_dir_all(&again.dir)?;
            }
            let o = Outcome {
                setup_s,
                disk_bytes,
                input_bytes,
                untraced: a.samples,
                untraced_secs: a.secs,
                peak_rss_mb,
            };
            end_to_end(spec, &o)
        }
    };
    Ok(report(digest_ok, attempted, failed, metrics))
}
