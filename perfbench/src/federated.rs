//! `federated_search`: a thin router over two loopback peers (a plain
//! store and a 2-shard store) plus an in-process content-only source, so
//! the router both merges and augments.

use crate::harness::{self, Result, Sample, Stream};
use crate::layers::{self, Counters};
use crate::stats::{self, Report};
use crate::streams::{federated_query, stream_seed, Rng, Terms};
use crate::trace::{self, TimedSource, TracedRoutes, TracedService, Tracer};
use crate::{end_to_end, phase, report, warm_up, Args, Outcome, Spec, PHASE_A_IDS, PHASE_B_IDS};
use netmark::{Document, NetMark, ResultSet, XdbBackend, XdbQuery};
use netmark_corpus::{lessons_learned, mixed, CorpusConfig, RawDoc};
use netmark_federation::{
    serve_router_with, Capabilities, ContentOnlySource, NetmarkSource, RemoteConfig, RemoteSource,
    Router, SourceAdapter, SourceError,
};
use netmark_netserve::{Frontend, FrontendConfig, FrontendStats};
use netmark_shard::{ShardOptions, ShardedStore};
use netmark_webdav::{serve_with, HttpService, Request, Response};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const DATABANK: &str = "nasa";
const SOURCES: [&str; 3] = ["plain", "sharded", "llis"];
/// Raw lessons-learned pages behind the content-only source.
const LLIS_DOCS: usize = 40;

/// A store as an in-process federation source (the reference router's
/// stand-in for a loopback peer).
struct BackendSource<B> {
    name: &'static str,
    backend: B,
}

impl<B: XdbBackend> SourceAdapter for BackendSource<B> {
    fn name(&self) -> &str {
        self.name
    }

    fn capabilities(&self) -> Capabilities {
        self.backend.capabilities()
    }

    fn search(&self, q: &XdbQuery) -> std::result::Result<ResultSet, SourceError> {
        match self.backend.run(q) {
            Ok(out) => out
                .results()
                .ok_or_else(|| SourceError::Backend("composed output".into())),
            Err(e) => Err(SourceError::Backend(e.to_string())),
        }
    }

    fn fetch_document(&self, name: &str) -> std::result::Result<Document, SourceError> {
        match self.backend.reconstruct_named(name) {
            Ok(Some(d)) => Ok(d),
            Ok(None) => Err(SourceError::Backend(format!("no document {name}"))),
            Err(e) => Err(SourceError::Backend(e.to_string())),
        }
    }
}

/// The router's `GET /xdb` route, for the traced handler.
struct RouterRoutes {
    router: Arc<Router>,
}

impl TracedRoutes for RouterRoutes {
    fn results(&self, q: &XdbQuery) -> std::result::Result<ResultSet, Response> {
        match &q.databank {
            Some(bank) => self
                .router
                .query(bank, q)
                .map(|fr| fr.results)
                .map_err(|e| Response::new(404).with_text(&e.to_string())),
            None => Err(Response::new(404).with_text("no databank named and no local store")),
        }
    }

    fn other(&self, _req: &Request) -> Response {
        Response::new(404).with_text("not found")
    }
}

fn router_over(sources: Vec<Arc<dyn SourceAdapter>>) -> Result<Router> {
    let mut router = Router::new();
    for s in sources {
        router.register_source(s)?;
    }
    router.define_databank(DATABANK, &SOURCES)?;
    Ok(router)
}

fn streams(seed: u64, salt: u64, limit: Option<usize>) -> Vec<Stream<'static>> {
    (0..crate::CONNS)
        .map(|c| {
            let mut terms = Terms::new(&mut Rng::new(stream_seed(seed, salt, c)));
            let mut n = 0;
            Box::new(move || {
                if limit.is_some_and(|l| n >= l) {
                    return None;
                }
                n += 1;
                Some(federated_query(n, &mut terms, DATABANK))
            }) as Stream<'static>
        })
        .collect()
}

/// Everything one set-up starts.
struct Deployment {
    plain: Arc<NetMark>,
    sharded: Arc<ShardedStore>,
    peers: Vec<netmark_webdav::ServerHandle>,
    sources: Vec<Arc<dyn SourceAdapter>>,
    router: netmark_federation::FederatedServerHandle,
    setup_ingest: Vec<netmark::PipelineStats>,
}

fn deploy(
    dir: &Path,
    plain_docs: &[RawDoc],
    shard_docs: &[RawDoc],
    llis: &[(String, String)],
) -> Result<Deployment> {
    let (plain, setup_ingest) = harness::build_store(&dir.join("plain"), plain_docs)?;
    let opts = ShardOptions {
        shards: 2,
        ..Default::default()
    };
    let sharded = Arc::new(ShardedStore::open_with(&dir.join("sharded"), opts)?);
    harness::load(&*sharded, shard_docs)?;
    sharded.flush()?;
    let mut indexes = vec![plain.text_index().as_ref()];
    indexes.extend(sharded.shards().iter().map(|s| s.text_index().as_ref()));
    harness::settle(&indexes);
    let peers = vec![
        serve_with(plain.clone(), "127.0.0.1:0", FrontendConfig::default())?,
        serve_with(sharded.clone(), "127.0.0.1:0", FrontendConfig::default())?,
    ];
    let mut sources: Vec<Arc<dyn SourceAdapter>> = Vec::new();
    for (name, peer) in SOURCES.iter().zip(&peers) {
        sources.push(Arc::new(RemoteSource::connect(
            name,
            &peer.addr().to_string(),
            RemoteConfig::default(),
        )?));
    }
    sources.push(Arc::new(ContentOnlySource::new("llis", llis.to_vec())));
    let router = serve_router_with(
        Arc::new(router_over(sources.clone())?),
        None,
        "127.0.0.1:0",
        FrontendConfig::default(),
    )?;
    Ok(Deployment {
        plain,
        sharded,
        peers,
        sources,
        router,
        setup_ingest,
    })
}

impl Deployment {
    fn stop(self) -> (Arc<NetMark>, Arc<ShardedStore>) {
        self.router.stop();
        drop(self.sources);
        for p in self.peers {
            p.stop();
        }
        (self.plain, self.sharded)
    }
}

pub fn run(spec: &Spec, args: &Args, work: &Path) -> Result<Report> {
    let epoch = Instant::now();
    let seed = args.seed;
    let plain_docs = mixed(&CorpusConfig::sized(spec.docs).with_seed(seed));
    let shard_docs: Vec<RawDoc> = mixed(&CorpusConfig::sized(spec.docs).with_seed(seed ^ 0x5a4d))
        .into_iter()
        .map(|d| RawDoc {
            name: format!("s-{}", d.name),
            content: d.content,
        })
        .collect();
    let llis: Vec<(String, String)> =
        lessons_learned(&CorpusConfig::sized(LLIS_DOCS).with_seed(seed ^ 0x1115))
            .into_iter()
            .map(|d| (format!("llis-{}", d.name), d.content))
            .collect();

    // The first set-up serves the run; the others, made after the timed
    // phases and the checks, only feed `setup_s`'s median.
    let set_up = |rep: usize| -> Result<(std::path::PathBuf, Deployment, f64)> {
        let dir = work.join(format!("fed{rep}"));
        let t = Instant::now();
        let d = deploy(&dir, &plain_docs, &shard_docs, &llis)?;
        warm_up(
            d.router.addr(),
            streams(seed, 1 + rep as u64, Some(spec.warmup)),
        )?;
        Ok((dir, d, t.elapsed().as_secs_f64()))
    };
    let (dir, d, first_setup) = set_up(0)?;
    let mut setup_s = vec![first_setup];
    let disk_bytes = harness::dir_bytes(&dir);
    let input_bytes = harness::input_bytes(&plain_docs) + harness::input_bytes(&shard_docs);

    let secs_a = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let a = phase(
        d.router.addr(),
        epoch,
        PHASE_A_IDS,
        streams(seed, 0, None),
        secs_a,
        None,
    )?;
    let peak_rss_mb = harness::peak_rss_mb();

    let mut traced = None;
    if args.trace {
        let tracer = Tracer::new(epoch);
        let timed: Vec<Arc<dyn SourceAdapter>> = d
            .sources
            .iter()
            .map(|s| {
                Arc::new(TimedSource {
                    inner: s.clone(),
                    tracer: tracer.clone(),
                    span_name: format!("source.{}", s.name()),
                }) as Arc<dyn SourceAdapter>
            })
            .collect();
        let router = Arc::new(router_over(timed)?);
        let routes = RouterRoutes {
            router: router.clone(),
        };
        let service = TracedService {
            inner: HttpService::new(trace::traced_handler(routes, tracer.clone())),
            tracer: tracer.clone(),
        };
        let fe_stats = FrontendStats::shared();
        let fe = Frontend::start(
            std::net::TcpListener::bind("127.0.0.1:0")?,
            service,
            FrontendConfig::default(),
            fe_stats.clone(),
        )?;
        let stores: Vec<&NetMark> = std::iter::once(&*d.plain)
            .chain(d.sharded.shards().iter().map(|s| &**s))
            .collect();
        let read = |fe| {
            let mut c = Counters::read(&stores, fe);
            for s in router.source_stats().values() {
                c.sources.0 += s.failures;
                c.sources.1 += s.breaker_opens;
            }
            c
        };
        let shard_before: Vec<u64> = d.sharded.shard_stats().iter().map(|s| s.queries).collect();
        let before = read(fe_stats.snapshot());
        let mut owned = vec![d.plain.clone()];
        owned.extend(d.sharded.shards().iter().cloned());
        let monitor = layers::Monitor::start(owned, fe_stats.clone());
        let b = phase(
            fe.addr(),
            epoch,
            PHASE_B_IDS,
            streams(seed, 0x7ace, None),
            args.seconds / 2.0,
            None,
        )?;
        let peaks = monitor.stop();
        let after = read(fe_stats.snapshot());
        let shard_queries: Vec<u64> = d
            .sharded
            .shard_stats()
            .iter()
            .zip(&shard_before)
            .map(|(s, before)| stats::delta(s.queries, *before))
            .collect();
        fe.stop();
        let m = layers::per_layer(&layers::LayerInput {
            untraced: &a.samples,
            traced: &b.samples,
            tracer: &tracer,
            before: &before,
            after: &after,
            peaks,
            ingest_runs: &d.setup_ingest,
            shard_queries: &shard_queries,
            federated: true,
        });
        crate::write_spans(&tracer, spec.name, seed)?;
        traced = Some((m, b.samples));
    }

    // Reference: the same databank over in-process sources opened with the
    // serial, cache-off engine.
    let (plain, sharded) = d.stop();
    drop(Arc::try_unwrap(plain).map_err(|_| "plain store still shared")?);
    drop(Arc::try_unwrap(sharded).map_err(|_| "sharded store still shared")?);
    let plain_ref = Arc::new(NetMark::open_with(
        &dir.join("plain"),
        harness::reference_options(),
    )?);
    let shard_opts = ShardOptions {
        shards: 2,
        netmark: harness::reference_options(),
    };
    let sharded_ref = ShardedStore::open_with(&dir.join("sharded"), shard_opts)?;
    let reference = router_over(vec![
        Arc::new(NetmarkSource::new("plain", plain_ref)),
        Arc::new(BackendSource {
            name: "sharded",
            backend: sharded_ref,
        }),
        Arc::new(ContentOnlySource::new("llis", llis.clone())),
    ])?;
    let answer = |path: &str| -> (u16, Vec<u8>) {
        let q = path.strip_prefix("/xdb?").map(XdbQuery::from_url);
        match q {
            Some(Ok(q)) => match reference.query(q.databank.as_deref().unwrap_or(""), &q) {
                Ok(fr) => (200, fr.results.to_xml().into_bytes()),
                Err(e) => (404, e.to_string().into_bytes()),
            },
            _ => (400, Vec::new()),
        }
    };
    let traced_samples: &[Sample] = traced.as_ref().map_or(&[], |(_, s)| s.as_slice());
    let all: Vec<Sample> = a.samples.iter().chain(traced_samples).cloned().collect();
    let t = Instant::now();
    let failed = harness::count_wrong(&all, &answer);
    eprintln!(
        "perfbench: checked {} answers in {:.1} s",
        all.len(),
        t.elapsed().as_secs_f64()
    );
    let digest_ok = crate::check_digest(spec.name, seed, &a.samples);
    let attempted = all.len() as u64;

    drop(reference);

    let metrics = match traced {
        Some((m, _)) => m,
        None => {
            for rep in 1..crate::SETUPS {
                let (dir, d, secs) = set_up(rep)?;
                setup_s.push(secs);
                drop(d.stop());
                std::fs::remove_dir_all(&dir)?;
            }
            end_to_end(
                spec,
                &Outcome {
                    setup_s,
                    disk_bytes,
                    input_bytes,
                    untraced: a.samples,
                    untraced_secs: a.secs,
                    peak_rss_mb,
                },
            )
        }
    };
    Ok(report(digest_ok, attempted, failed, metrics))
}
