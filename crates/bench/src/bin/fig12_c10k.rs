//! FIG12 — C10k on the bounded front end: 10k concurrent keep-alive
//! clients against one NETMARK server, without an async runtime.
//!
//! Not a figure from the paper: NETMARK's production claim ("hundreds of
//! users … JPL, other NASA centers", §4) implies an access server that
//! survives concurrency, and the reproduction's old thread-per-connection
//! loop did not — every idle keep-alive client held an OS thread, and
//! over capacity it queued without bound. This harness pins the new
//! front end's two promises:
//!
//! 1. **Capacity** — N keep-alive clients (default 10 000) all connect
//!    and stay connected; measurement rounds issue requests over every
//!    connection. Acceptance: bounded p99, **zero** sheds, zero accept
//!    errors — idle connections cost an fd and a parking-lot slot, not a
//!    thread. The server's CPU time over a 5 s window with every
//!    connection idle (parked, but for the few that spare workers wait
//!    on) is the price of sweeping the lot.
//! 2. **Overload** — a second server with deliberately tiny caps
//!    (`max_conns` 64) takes a connect storm 4× its capacity.
//!    Acceptance: the surplus is shed with `429` + `Retry-After` (never
//!    a hang, never an unbounded queue), admitted clients are still
//!    served, and the sheds are visible in `GET /xdb/stats`. Clients
//!    that got neither answer are counted as broken, by kind.
//!
//! The server runs as a subprocess (`FIG12_ROLE=server`) so client and
//! server draw on separate fd budgets; the parent drives the phases and
//! scrapes `/xdb/stats` over the wire like an operator would.
//!
//! `FIG12_CLIENTS` overrides the phase-1 population (CI smoke uses 500);
//! `FIG12_ROUNDS` the measurement rounds per phase.

use netmark::NetMark;
use netmark_bench::{banner, fmt_dur, percentile, TableWriter, TempDir};
use netmark_webdav::{serve_with, FrontendConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

fn env_num(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Soft `RLIMIT_NOFILE`, read the portable-enough way.
fn fd_limit() -> usize {
    std::fs::read_to_string("/proc/self/limits")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Max open files"))
                .and_then(|l| l.split_whitespace().nth(3))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(1024)
}

// ------------------------------------------------------------ server role

/// The subprocess: bring up a real server, print the address, serve
/// until the parent closes our stdin.
fn run_server() {
    let dir = TempDir::new("fig12-server");
    let nm = std::sync::Arc::new(NetMark::open(dir.path()).unwrap());
    for i in 0..8 {
        nm.insert_file(
            &format!("doc{i}.txt"),
            &format!("# Budget\nproject {i} shuttle funding\n"),
        )
        .unwrap();
    }
    let cfg = FrontendConfig {
        workers: env_num("FIG12_WORKERS", 8),
        queue_depth: env_num("FIG12_QUEUE_DEPTH", 1024),
        max_conns: env_num("FIG12_MAX_CONNS", 8192),
        max_per_client: usize::MAX, // every client shares 127.0.0.1
        idle_timeout: Duration::from_secs(env_num("FIG12_IDLE_SECS", 600) as u64),
        poll_interval: Duration::from_millis(env_num("FIG12_POLL_MS", 10) as u64),
        retry_after: Duration::from_secs(1),
        ..FrontendConfig::default()
    };
    let h = serve_with(nm, "127.0.0.1:0", cfg).unwrap();
    println!("ADDR {}", h.addr());
    std::io::stdout().flush().unwrap();
    // Parent closing our stdin is the shutdown signal.
    let mut line = String::new();
    let _ = std::io::stdin().read_line(&mut line);
    h.stop();
}

/// Spawns the server subprocess with the given caps; returns the child
/// and its bound address.
fn spawn_server(env: &[(&str, String)]) -> (Child, SocketAddr) {
    let exe = std::env::current_exe().expect("current exe");
    let mut cmd = Command::new(exe);
    cmd.env("FIG12_ROLE", "server")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped());
    for (k, v) in env {
        cmd.env(k, v);
    }
    let mut child = cmd.spawn().expect("spawn server subprocess");
    let stdout = child.stdout.take().expect("child stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = lines
        .next()
        .expect("server printed nothing")
        .expect("read server stdout")
        .strip_prefix("ADDR ")
        .expect("ADDR line")
        .parse()
        .expect("server address");
    (child, addr)
}

fn stop_server(mut child: Child) {
    drop(child.stdin.take()); // EOF → clean server shutdown
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match child.try_wait() {
            Ok(Some(_)) => return,
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return;
            }
        }
    }
}

// ------------------------------------------------------------ client side

/// One framed keep-alive GET on an open connection; returns the full
/// response text.
fn get(s: &mut TcpStream, path: &str) -> std::io::Result<String> {
    // One write per request, as an HTTP client sends it. `write!` on the
    // bare socket writes each piece separately: Nagle then holds the rest
    // until the server's delayed ACK (a 40 ms floor under every request),
    // and a piece written after a shed's close fails with a broken pipe
    // although the 429 has arrived.
    s.write_all(format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes())?;
    read_response(s)
}

fn read_response(s: &mut TcpStream) -> std::io::Result<String> {
    s.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    while !raw.ends_with(b"\r\n\r\n") {
        let n = s.read(&mut byte)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "closed mid-headers",
            ));
        }
        raw.push(byte[0]);
    }
    let head = String::from_utf8_lossy(&raw).to_string();
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0);
    let mut body = vec![0u8; len];
    s.read_exact(&mut body)?;
    Ok(head + &String::from_utf8_lossy(&body))
}

/// Reads the named counter attribute out of the `<server …/>` element of
/// a `/xdb/stats` document.
fn server_counter(stats_doc: &str, attr: &str) -> u64 {
    let server = stats_doc
        .split("<server ")
        .nth(1)
        .unwrap_or_else(|| panic!("stats document has no <server/> element: {stats_doc}"));
    server
        .split(&format!("{attr}=\""))
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {attr} counter in <server/>: {stats_doc}"))
}

/// CPU seconds (user + system) process `pid` has used so far, from
/// `/proc/<pid>/stat`; `None` where there is no procfs.
fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name start at the 3rd;
    // utime and stime are the 14th and 15th, in USER_HZ (100 Hz) ticks.
    let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

fn scrape_stats(addr: SocketAddr) -> String {
    let mut s = TcpStream::connect(addr).expect("stats connection");
    get(&mut s, "/xdb/stats").expect("stats request")
}

/// Phase 1: `clients` keep-alive connections held open at once;
/// `rounds` measurement passes issue one request per connection per
/// round from a small pool of driver threads; then every connection
/// idles while the server process `server_pid`'s CPU time is read.
fn phase_capacity(
    addr: SocketAddr,
    server_pid: u32,
    clients: usize,
    rounds: usize,
    table: &mut TableWriter,
) {
    let drivers = 16usize;
    let conns: Mutex<Vec<TcpStream>> = Mutex::new(Vec::with_capacity(clients));
    let failures = AtomicUsize::new(0);

    // Connect storm, paced across driver threads. Every connection
    // proves itself with one request, then stays open and idle.
    let connect_started = Instant::now();
    std::thread::scope(|scope| {
        for d in 0..drivers {
            let conns = &conns;
            let failures = &failures;
            let share = clients / drivers + usize::from(d < clients % drivers);
            scope.spawn(move || {
                let mut local = Vec::with_capacity(share);
                for i in 0..share {
                    match TcpStream::connect(addr) {
                        Ok(mut s) => {
                            if get(&mut s, "/xdb/capabilities").is_ok() {
                                local.push(s);
                            } else {
                                failures.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(_) => {
                            failures.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    if i % 64 == 63 {
                        // Pace: don't outrun the accept backlog.
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                conns.lock().unwrap().append(&mut local);
            });
        }
    });
    let mut conns = conns.into_inner().unwrap();
    let connect_elapsed = connect_started.elapsed();
    assert_eq!(
        failures.load(Ordering::Relaxed),
        0,
        "connections failed during the storm"
    );
    assert_eq!(conns.len(), clients);
    println!(
        "  {} keep-alive connections established in {} (all held open)",
        conns.len(),
        fmt_dur(connect_elapsed)
    );

    // Measurement rounds over the standing population.
    for round in 0..rounds {
        let lats: Mutex<Vec<Duration>> = Mutex::new(Vec::with_capacity(clients));
        let round_started = Instant::now();
        std::thread::scope(|scope| {
            let chunk = conns.len() / drivers + 1;
            for part in conns.chunks_mut(chunk) {
                let lats = &lats;
                let failures = &failures;
                scope.spawn(move || {
                    let mut local = Vec::with_capacity(part.len());
                    for s in part {
                        let started = Instant::now();
                        match get(s, "/xdb/stats") {
                            Ok(resp) if resp.starts_with("HTTP/1.1 200") => {
                                local.push(started.elapsed())
                            }
                            _ => {
                                failures.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    lats.lock().unwrap().append(&mut local);
                });
            }
        });
        let mut lats = lats.into_inner().unwrap();
        lats.sort();
        let round_elapsed = round_started.elapsed();
        table.row(&[
            format!("capacity r{}", round + 1),
            conns.len().to_string(),
            lats.len().to_string(),
            fmt_dur(percentile(&mut lats, 0.50)),
            fmt_dur(percentile(&mut lats, 0.99)),
            fmt_dur(*lats.last().unwrap()),
            fmt_dur(round_elapsed),
        ]);
        assert_eq!(failures.load(Ordering::Relaxed), 0, "requests failed");
        // Bounded p99: generous — the point is "seconds, not minutes or
        // a hang", on a box where every driver shares one core with the
        // server.
        assert!(
            percentile(&mut lats, 0.99) < Duration::from_secs(10),
            "p99 unbounded under C10k"
        );
    }

    // Every connection idle: the server's work is sweeping the parked
    // lot, plus one wake-up per cadence for each connection a spare
    // worker still waits on (at most workers - 1 of them).
    std::thread::sleep(Duration::from_millis(500));
    let window = Duration::from_secs(5);
    let before = cpu_seconds(server_pid);
    std::thread::sleep(window);
    match (before, cpu_seconds(server_pid)) {
        (Some(a), Some(b)) => println!(
            "  parked lot: server used {:.2} CPU s over {} with {} connections idle",
            b - a,
            fmt_dur(window),
            conns.len()
        ),
        _ => println!("  parked lot: server CPU time unavailable (no procfs)"),
    }

    let stats = scrape_stats(addr);
    let sheds = server_counter(&stats, "shed");
    let accept_errors = server_counter(&stats, "accept-errors");
    let parked = server_counter(&stats, "parked");
    println!(
        "  server: shed={sheds} accept-errors={accept_errors} parked={parked} \
         active={}",
        server_counter(&stats, "active")
    );
    assert_eq!(sheds, 0, "capacity phase must not shed");
    assert_eq!(accept_errors, 0, "accept loop stalled (EMFILE?)");
    drop(conns);
}

/// Why an overload client got neither a `200` nor a `429`; indexes the
/// broken counters.
#[derive(Clone, Copy)]
enum Broken {
    /// `connect(2)` failed.
    Connect,
    /// EOF or reset before a whole response arrived.
    Closed,
    /// Anything else: a read timeout, another status.
    Other,
}

fn broken_kind(e: &std::io::Error) -> Broken {
    use std::io::ErrorKind::*;
    match e.kind() {
        UnexpectedEof | ConnectionReset | ConnectionAborted | BrokenPipe => Broken::Closed,
        _ => Broken::Other,
    }
}

/// Phase 2: a connect storm 4× the tiny server's capacity. Surplus
/// connections must see a prompt `429` with `Retry-After`; admitted ones
/// must still be served.
fn phase_overload(addr: SocketAddr, capacity: usize, table: &mut TableWriter) {
    let storm = capacity * 4;
    let served = AtomicUsize::new(0);
    let shed = AtomicUsize::new(0);
    let broken: [AtomicUsize; 3] = Default::default();
    let broken_total = || {
        broken
            .iter()
            .map(|n| n.load(Ordering::Relaxed))
            .sum::<usize>()
    };
    let shed_lats: Mutex<Vec<Duration>> = Mutex::new(Vec::new());
    let started = Instant::now();

    std::thread::scope(|scope| {
        for _ in 0..16 {
            let (served, shed, broken, broken_total, shed_lats) =
                (&served, &shed, &broken, &broken_total, &shed_lats);
            scope.spawn(move || {
                let mut held = Vec::new();
                let count = |kind: Broken| broken[kind as usize].fetch_add(1, Ordering::Relaxed);
                while served.load(Ordering::Relaxed) + shed.load(Ordering::Relaxed) + broken_total()
                    < storm
                {
                    let t0 = Instant::now();
                    let Ok(mut s) = TcpStream::connect(addr) else {
                        count(Broken::Connect);
                        continue;
                    };
                    // An admitted connection yields a 200; a shed one
                    // gets the canned 429 and a server-side close.
                    match get(&mut s, "/xdb/capabilities") {
                        Ok(resp) if resp.starts_with("HTTP/1.1 200") => {
                            served.fetch_add(1, Ordering::Relaxed);
                            held.push(s); // hold the slot: keep pressure on
                        }
                        Ok(resp) if resp.starts_with("HTTP/1.1 429") => {
                            assert!(
                                resp.contains("Retry-After:"),
                                "shed response missing Retry-After: {resp}"
                            );
                            shed.fetch_add(1, Ordering::Relaxed);
                            shed_lats.lock().unwrap().push(t0.elapsed());
                        }
                        Ok(_) => {
                            count(Broken::Other);
                        }
                        Err(e) => {
                            count(broken_kind(&e));
                        }
                    }
                }
                drop(held);
            });
        }
    });

    let mut lats = shed_lats.into_inner().unwrap();
    lats.sort();
    let sheds_seen = shed.load(Ordering::Relaxed);
    table.row(&[
        "overload".to_string(),
        storm.to_string(),
        format!("{} served", served.load(Ordering::Relaxed)),
        format!("{sheds_seen} shed"),
        if lats.is_empty() {
            "-".to_string()
        } else {
            fmt_dur(percentile(&mut lats, 0.99))
        },
        format!(
            "{} broken (connect {}, eof/reset {}, other {})",
            broken_total(),
            broken[Broken::Connect as usize].load(Ordering::Relaxed),
            broken[Broken::Closed as usize].load(Ordering::Relaxed),
            broken[Broken::Other as usize].load(Ordering::Relaxed),
        ),
        fmt_dur(started.elapsed()),
    ]);

    assert!(sheds_seen > 0, "overload phase never shed");
    assert!(served.load(Ordering::Relaxed) > 0, "nobody was served");
    if let Some(p99) = (!lats.is_empty()).then(|| percentile(&mut lats, 0.99)) {
        // A shed is the *cheap* path: the answer must come back fast
        // even while the server is saturated.
        assert!(p99 < Duration::from_secs(5), "sheds were slow: {p99:?}");
    }

    // The storm is over (held slots released above); the stats endpoint
    // answers, and the sheds are on the operator's dashboard.
    let deadline = Instant::now() + Duration::from_secs(10);
    let sheds_reported = loop {
        let mut s = match TcpStream::connect(addr) {
            Ok(s) => s,
            Err(_) => {
                assert!(Instant::now() < deadline, "stats endpoint unreachable");
                std::thread::sleep(Duration::from_millis(100));
                continue;
            }
        };
        match get(&mut s, "/xdb/stats") {
            Ok(resp) if resp.starts_with("HTTP/1.1 200") => {
                break server_counter(&resp, "shed");
            }
            _ => {
                assert!(Instant::now() < deadline, "stats endpoint kept shedding");
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    };
    println!("  server reports shed={sheds_reported} via /xdb/stats");
    assert!(sheds_reported as usize >= sheds_seen.min(1));
}

fn main() {
    if std::env::var("FIG12_ROLE").as_deref() == Ok("server") {
        run_server();
        return;
    }

    banner(
        "FIG12",
        "C10k on the bounded front end (not a paper figure)",
        "hundreds of concurrent users are served by lean middleware: idle \
         keep-alive clients cost an fd, not a thread; overload sheds with \
         429 + Retry-After instead of queueing unboundedly (§4)",
    );

    let requested = env_num("FIG12_CLIENTS", 10_000);
    // The parent needs one fd per client plus slack for the harness.
    let clients = requested.min(fd_limit().saturating_sub(512));
    if clients < requested {
        println!("  (fd limit clamps clients: {requested} requested → {clients})");
    }
    let rounds = env_num("FIG12_ROUNDS", 2);

    let mut table = TableWriter::new(&[
        "phase", "clients", "requests", "p50", "p99", "max", "elapsed",
    ]);

    // Phase 1: capacity-sized server.
    let (child, addr) = spawn_server(&[
        ("FIG12_MAX_CONNS", format!("{}", clients + 64)),
        ("FIG12_QUEUE_DEPTH", format!("{}", clients + 64)),
        // Sweeping a 10k-connection lot takes a while on one core; a
        // coarser cadence keeps the poller from monopolizing it.
        ("FIG12_POLL_MS", "25".to_string()),
    ]);
    phase_capacity(addr, child.id(), clients, rounds, &mut table);
    stop_server(child);

    // Phase 2: deliberately tiny server.
    let capacity = 64;
    let (child, addr) = spawn_server(&[
        ("FIG12_MAX_CONNS", capacity.to_string()),
        ("FIG12_QUEUE_DEPTH", "16".to_string()),
        ("FIG12_WORKERS", "4".to_string()),
    ]);
    phase_overload(addr, capacity, &mut table);
    stop_server(child);

    println!();
    table.print();
    println!();
    println!(
        "fig12: {clients} keep-alive clients held concurrently, p99 bounded, \
         overload shed with 429 + Retry-After"
    );
}
