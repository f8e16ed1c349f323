//! Fault-injection e2e for networked federation: real sockets, a TCP
//! proxy that injects delays/truncation, sources killed mid-run, and the
//! breaker/short-circuit behaviour the router must show under partial
//! failure (ISSUE: networked federation acceptance).

use netmark::{NetMark, XdbQuery};
use netmark_federation::{
    BreakerConfig, BreakerState, ClientConfig, RemoteConfig, RemoteSource, Router,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ------------------------------------------------------------ fault proxy

/// What the proxy does to the *response* path of each new connection.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Fault {
    /// Forward untouched.
    Pass,
    /// Hold the response back this long (→ client read timeout).
    Delay(Duration),
    /// Forward only the first N response bytes, then cut the wire.
    TruncateAfter(usize),
    /// Accept and immediately drop the connection.
    Refuse,
}

/// A TCP proxy in front of one upstream, with a switchable fault mode.
/// New connections pick up the mode current at accept time.
struct FaultProxy {
    addr: SocketAddr,
    mode: Arc<Mutex<Fault>>,
    stop: Arc<AtomicBool>,
}

impl FaultProxy {
    fn start(upstream: SocketAddr) -> FaultProxy {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mode = Arc::new(Mutex::new(Fault::Pass));
        let stop = Arc::new(AtomicBool::new(false));
        let (mode2, stop2) = (Arc::clone(&mode), Arc::clone(&stop));
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                if stop2.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(client) = conn else { continue };
                if *mode2.lock().unwrap() == Fault::Refuse {
                    continue; // drop: client sees an immediate close
                }
                let Ok(server) = TcpStream::connect(upstream) else {
                    continue;
                };
                // Request path: client → upstream, untouched.
                let (c2, s2) = (client.try_clone().unwrap(), server.try_clone().unwrap());
                std::thread::spawn(move || pipe(c2, s2, None));
                // Response path: upstream → client, faulted. The mode is
                // consulted per chunk, so switching it mid-run also hits
                // pooled keep-alive connections opened while healthy.
                let mode = Arc::clone(&mode2);
                std::thread::spawn(move || pipe(server, client, Some(mode)));
            }
        });
        FaultProxy { addr, mode, stop }
    }

    fn set(&self, fault: Fault) {
        *self.mode.lock().unwrap() = fault;
    }

    fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }
}

/// Copies bytes one way until EOF/error, then cuts both sockets so the
/// peer observes the close. When `mode` is set (the response path), the
/// fault current at each chunk is applied: Delay sleeps before
/// forwarding, TruncateAfter forwards a prefix and cuts, Refuse cuts.
fn pipe(mut from: TcpStream, mut to: TcpStream, mode: Option<Arc<Mutex<Fault>>>) {
    let mut buf = [0u8; 4096];
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let fault = mode
            .as_ref()
            .map(|m| *m.lock().unwrap())
            .unwrap_or(Fault::Pass);
        match fault {
            Fault::Pass => {
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
            Fault::Delay(d) => {
                std::thread::sleep(d);
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
            Fault::TruncateAfter(limit) => {
                let _ = to.write_all(&buf[..n.min(limit)]);
                break; // cut mid-response
            }
            Fault::Refuse => break,
        }
    }
    let _ = to.shutdown(std::net::Shutdown::Both);
    let _ = from.shutdown(std::net::Shutdown::Both);
}

// --------------------------------------------------------------- fixtures

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("netmark-fault-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Store with one `# Budget` doc whose body names the source.
fn store_with(base: &std::path::Path, name: &str) -> Arc<NetMark> {
    let nm = Arc::new(NetMark::open(&base.join(name)).unwrap());
    nm.insert_file(&format!("{name}.txt"), &format!("# Budget\n{name} money\n"))
        .unwrap();
    nm
}

/// Tight timeouts so fault paths resolve in milliseconds, not seconds.
fn tight() -> RemoteConfig {
    tight_with_cooldown(Duration::from_millis(200))
}

fn tight_with_cooldown(cooldown: Duration) -> RemoteConfig {
    RemoteConfig {
        client: ClientConfig {
            connect_timeout: Duration::from_millis(300),
            read_timeout: Duration::from_millis(300),
            retries: 0,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(20),
        },
        breaker: BreakerConfig {
            failure_threshold: 2,
            cooldown,
        },
    }
}

// ------------------------------------------------------------------ tests

/// The acceptance scenario: three remote sources; one is killed, another
/// is delayed past the read timeout. The federated query still returns
/// the healthy source's hits, per-source outcomes report the failures,
/// and the breaker opens — then recovers once the slow source heals.
#[test]
fn federated_query_survives_dead_and_slow_sources() {
    let base = scratch("3src");
    let alpha_srv = netmark_webdav::serve(store_with(&base, "alpha"), "127.0.0.1:0").unwrap();
    let bravo_srv = netmark_webdav::serve(store_with(&base, "bravo"), "127.0.0.1:0").unwrap();
    let charlie_srv = netmark_webdav::serve(store_with(&base, "charlie"), "127.0.0.1:0").unwrap();
    let proxy = FaultProxy::start(charlie_srv.addr());

    let mut router = Router::new();
    // bravo never comes back in this test; park its breaker open for the
    // whole run so the short-circuit assertions are deterministic even
    // though charlie's timeouts make other queries slow.
    for (name, addr, cooldown) in [
        ("alpha", alpha_srv.addr().to_string(), 200),
        ("bravo", bravo_srv.addr().to_string(), 60_000),
        ("charlie", proxy.addr.to_string(), 200),
    ] {
        let cfg = tight_with_cooldown(Duration::from_millis(cooldown));
        let src = RemoteSource::connect(name, &addr, cfg).unwrap();
        router.register_source(Arc::new(src)).unwrap();
    }
    router
        .define_databank("fleet", &["alpha", "bravo", "charlie"])
        .unwrap();
    let q = XdbQuery::context("Budget");

    // Healthy fleet: every source contributes.
    let fr = router.query("fleet", &q).unwrap();
    assert!(!fr.degraded());
    for name in ["alpha", "bravo", "charlie"] {
        assert!(
            fr.results.hits.iter().any(|h| h.source == name),
            "missing hits from {name}"
        );
    }

    // Fault injection: bravo dies (listener + live connections closed),
    // charlie hangs past the client's read timeout.
    bravo_srv.stop();
    proxy.set(Fault::Delay(Duration::from_millis(900)));

    let fr = router.query("fleet", &q).unwrap();
    assert!(fr.degraded());
    assert!(
        fr.results.hits.iter().any(|h| h.source == "alpha"),
        "healthy source's hits must survive the partial failure"
    );
    assert!(fr.results.hits.iter().all(|h| h.source == "alpha"));
    let outcome = |fr: &netmark_federation::FederatedResult, n: &str| {
        fr.outcomes.iter().find(|o| o.source == n).unwrap().clone()
    };
    assert!(
        outcome(&fr, "bravo").error.is_some(),
        "dead source reported"
    );
    let charlie = outcome(&fr, "charlie");
    assert!(charlie.error.is_some(), "timed-out source reported");
    assert!(
        charlie.latency >= Duration::from_millis(250),
        "latency shows the read timeout was actually waited out: {:?}",
        charlie.latency
    );
    assert!(outcome(&fr, "alpha").error.is_none());

    // Second consecutive failure trips both breakers (threshold 2)…
    let _ = router.query("fleet", &q).unwrap();
    // …so the third answer short-circuits without touching the wire.
    let started = Instant::now();
    let fr = router.query("fleet", &q).unwrap();
    let elapsed = started.elapsed();
    assert!(outcome(&fr, "bravo").short_circuited);
    assert!(outcome(&fr, "charlie").short_circuited);
    assert!(
        elapsed < Duration::from_millis(250),
        "open breakers must answer without waiting out timeouts: {elapsed:?}"
    );
    let stats = router.source_stats();
    assert!(stats["bravo"].breaker_opens >= 1);
    assert!(stats["charlie"].breaker_opens >= 1);
    assert!(stats["bravo"].short_circuits >= 1);
    assert!(stats["alpha"].failures == 0);

    // Recovery: charlie heals; after the cooldown the half-open probe
    // closes its breaker and its hits come back.
    proxy.set(Fault::Pass);
    std::thread::sleep(Duration::from_millis(250));
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let fr = router.query("fleet", &q).unwrap();
        if fr.results.hits.iter().any(|h| h.source == "charlie") {
            assert!(outcome(&fr, "charlie").error.is_none());
            break;
        }
        assert!(Instant::now() < deadline, "charlie never recovered");
        std::thread::sleep(Duration::from_millis(100));
    }
    // bravo stays dead and stays reported — degradation is per-source.
    let fr = router.query("fleet", &q).unwrap();
    assert!(fr.degraded());
    assert!(fr.results.hits.iter().any(|h| h.source == "alpha"));
    assert!(fr.results.hits.iter().any(|h| h.source == "charlie"));

    alpha_srv.stop();
    charlie_srv.stop();
    proxy.stop();
    let _ = std::fs::remove_dir_all(&base);
}

/// A response cut mid-body is a clean per-source error — never a panic,
/// never a half-parsed result leaking into the merged answer.
#[test]
fn truncated_response_degrades_cleanly() {
    let base = scratch("trunc");
    let srv = netmark_webdav::serve(store_with(&base, "delta"), "127.0.0.1:0").unwrap();
    let proxy = FaultProxy::start(srv.addr());

    let src = RemoteSource::connect("delta", &proxy.addr.to_string(), tight()).unwrap();
    let mut router = Router::new();
    router.register_source(Arc::new(src)).unwrap();
    router.define_databank("bank", &["delta"]).unwrap();
    let q = XdbQuery::context("Budget");
    assert_eq!(router.query("bank", &q).unwrap().results.len(), 1);

    proxy.set(Fault::TruncateAfter(40)); // cuts inside the headers/body
    let fr = router.query("bank", &q).unwrap();
    assert!(fr.degraded());
    assert_eq!(fr.results.len(), 0);
    assert!(fr.outcomes[0].error.is_some());

    proxy.set(Fault::Pass);
    srv.stop();
    proxy.stop();
    let _ = std::fs::remove_dir_all(&base);
}

/// A refused connection (proxy drops it instantly) is indistinguishable
/// from a crashed peer: reported, retried per policy, breaker-managed.
#[test]
fn refused_connections_open_the_breaker() {
    let base = scratch("refuse");
    let srv = netmark_webdav::serve(store_with(&base, "echo"), "127.0.0.1:0").unwrap();
    let proxy = FaultProxy::start(srv.addr());

    let src = RemoteSource::connect("echo", &proxy.addr.to_string(), tight()).unwrap();
    let src = Arc::new(src);
    let mut router = Router::new();
    router.register_source(Arc::clone(&src) as _).unwrap();
    router.define_databank("bank", &["echo"]).unwrap();
    let q = XdbQuery::content("money");

    proxy.set(Fault::Refuse);
    let _ = router.query("bank", &q).unwrap();
    let _ = router.query("bank", &q).unwrap();
    assert_eq!(src.breaker_state(), BreakerState::Open);
    let fr = router.query("bank", &q).unwrap();
    assert!(fr.outcomes[0].short_circuited);

    srv.stop();
    proxy.stop();
    let _ = std::fs::remove_dir_all(&base);
}

/// A source at capacity sheds with `429 Retry-After` instead of queueing
/// or dropping. The federation client honors the header — it waits out
/// the advertised interval and then succeeds — so one overloaded source
/// costs latency, not availability, and no retry storm hits the server
/// while it recovers.
#[test]
fn shed_source_recovers_via_retry_after() {
    let base = scratch("shed");
    let cfg = netmark_federation::FrontendConfig {
        workers: 2,
        max_conns: 1,
        idle_timeout: Duration::from_millis(150),
        retry_after: Duration::from_secs(1),
        poll_interval: Duration::from_millis(5),
        ..netmark_federation::FrontendConfig::default()
    };
    let srv = netmark_webdav::serve_with(store_with(&base, "golf"), "127.0.0.1:0", cfg).unwrap();

    // Register while the server has room (capability negotiation needs a
    // slot); the pooled keep-alive connection is then reaped by the tiny
    // idle budget, freeing the slot again.
    let remote_cfg = RemoteConfig {
        client: ClientConfig {
            retries: 2,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(20),
            ..ClientConfig::default()
        },
        breaker: BreakerConfig {
            failure_threshold: 10,
            cooldown: Duration::from_millis(200),
        },
    };
    let src = RemoteSource::connect("golf", &srv.addr().to_string(), remote_cfg).unwrap();
    let mut router = Router::new();
    router.register_source(Arc::new(src)).unwrap();
    router.define_databank("bank", &["golf"]).unwrap();
    std::thread::sleep(Duration::from_millis(400)); // pooled conn reaped

    // Occupy the only slot, then free it while the client sleeps out the
    // Retry-After from its 429.
    let holder = TcpStream::connect(srv.addr()).unwrap();
    std::thread::sleep(Duration::from_millis(100)); // holder admitted
    let freer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        drop(holder);
    });

    let started = Instant::now();
    let fr = router.query("bank", &XdbQuery::context("Budget")).unwrap();
    let waited = started.elapsed();
    freer.join().unwrap();

    assert!(!fr.degraded(), "{:?}", fr.outcomes);
    assert_eq!(fr.results.len(), 1);
    assert!(
        waited >= Duration::from_secs(1),
        "client must wait out Retry-After before retrying: {waited:?}"
    );
    assert!(
        srv.server_stats().sheds >= 1,
        "the shed must be visible in server stats"
    );

    srv.stop();
    let _ = std::fs::remove_dir_all(&base);
}
