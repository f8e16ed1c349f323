//! The bounded front end: accept loop with admission control, fixed
//! worker pool over a bounded ready queue, and a parking lot + poller for
//! idle keep-alive connections.
//!
//! Threading shape (all counts fixed at start):
//!
//! ```text
//!  accept thread ──admission──▶ ready queue (bounded) ──▶ N workers
//!        │ shed 429                   ▲                      │ idle
//!        ▼                           promote                 ▼
//!      close                          └──── poller ◀──── parking lot
//! ```
//!
//! A connection lives in exactly one place: the ready queue (bytes
//! waiting, or just accepted), a worker (being served), or the parking
//! lot (keep-alive, idle between requests). When a served connection has
//! no next request yet, its worker waits on it in waits of at most one
//! `poll_interval` each, for as long as more workers are idle than
//! connections are queued — so under load no worker waits — and parks it
//! once that stops holding. The poller sweeps the lot with non-blocking
//! peeks, promoting readable connections and reaping ones idle past the
//! budget. No thread ever blocks on a socket without a deadline: a
//! worker's wait is bounded by `poll_interval`, a request read by
//! `read_budget`, a response write by `write_budget`.

use crate::stats::FrontendStats;
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Per-connection read buffer. Small on purpose: thousands of parked
/// keep-alive connections each hold one.
const READ_BUF: usize = 1024;

/// Requests served on one connection before a worker rotates it back
/// through the queue, so a pipelining client cannot monopolize a worker.
const MAX_REQUESTS_PER_SLICE: usize = 32;

/// Everything bounded about the front end. Defaults suit a production
/// box; tests shrink the budgets to milliseconds.
#[derive(Debug, Clone)]
pub struct FrontendConfig {
    /// Worker threads (fixed pool). Default: `4 × cores`, clamped to
    /// [4, 64] — workers block on the store, not on sockets, so a few
    /// per core keeps the engine busy without thread explosion.
    pub workers: usize,
    /// Ready-queue capacity. Accepts beyond this are shed with `429`.
    pub queue_depth: usize,
    /// Global live-connection cap (fd budget). Accepts beyond it shed.
    pub max_conns: usize,
    /// In-flight connections allowed per client IP before `429`
    /// (fairness: one greedy client cannot take every slot).
    pub max_per_client: usize,
    /// How long a keep-alive connection may sit idle *between* requests
    /// before the poller reaps it.
    pub idle_timeout: Duration,
    /// Wall-clock budget for reading one request once its first byte
    /// exists — a deadline, not a per-read timeout, so a client
    /// trickling one byte per second cannot extend it (slow-loris).
    pub read_budget: Duration,
    /// Socket write timeout for responses (dead/slow-reading peers).
    pub write_budget: Duration,
    /// Soft per-request deadline: requests served slower than this are
    /// counted (`deadline-overruns`) for operators to alarm on.
    pub request_deadline: Duration,
    /// Advertised `Retry-After` on shed responses.
    pub retry_after: Duration,
    /// Parking-lot sweep cadence, and the longest one wait of a worker on
    /// an idle connection lasts before the worker re-checks whether it
    /// is needed elsewhere. A request on a connection a worker is waiting
    /// on is served at once; one on a parked connection (parked because
    /// no worker was free to wait) pays up to one cadence more.
    pub poll_interval: Duration,
    /// Sleep after an `accept(2)` failure (EMFILE et al.) instead of
    /// hot-spinning the accept loop.
    pub accept_error_backoff: Duration,
}

impl Default for FrontendConfig {
    fn default() -> FrontendConfig {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        FrontendConfig {
            workers: (cores * 4).clamp(4, 64),
            queue_depth: 1024,
            max_conns: 8192,
            max_per_client: 256,
            idle_timeout: Duration::from_secs(30),
            read_budget: Duration::from_secs(10),
            write_budget: Duration::from_secs(10),
            request_deadline: Duration::from_secs(30),
            retry_after: Duration::from_secs(1),
            poll_interval: Duration::from_millis(10),
            accept_error_backoff: Duration::from_millis(100),
        }
    }
}

/// What [`Service::serve_one`] did with the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOutcome {
    /// One request answered; `keep` says whether the protocol wants the
    /// connection kept open.
    Served {
        /// Keep the connection for more requests.
        keep: bool,
    },
    /// Clean end of stream at a request boundary (client done).
    CleanClose,
    /// The read budget expired mid-request (slow-loris kill).
    TimedOut,
    /// Unrecoverable protocol or socket error; close.
    Fatal,
}

/// A protocol binding: parse one request off `reader`, write one
/// response to `out`. The front end owns everything else about the
/// socket (budgets, parking, shedding, accounting).
pub trait Service: Send + Sync + 'static {
    /// Serves exactly one request. `reader` enforces the front end's
    /// read budget internally — a timeout surfaces as an I/O error with
    /// kind `TimedOut`/`WouldBlock`, which implementations map to
    /// [`ServeOutcome::TimedOut`].
    fn serve_one(&self, reader: &mut dyn BufRead, out: &mut dyn Write) -> ServeOutcome;

    /// The canned over-capacity response (e.g. HTTP `429` with
    /// `Retry-After`), rendered once at startup and written verbatim to
    /// shed connections.
    fn shed_response(&self, retry_after: Duration) -> Vec<u8>;
}

/// Source of inbound connections. `TcpListener` in production; tests
/// inject failures to pin the accept-error backoff behaviour.
pub trait Acceptor: Send + 'static {
    /// Accepts one connection.
    fn accept_conn(&self) -> io::Result<(TcpStream, SocketAddr)>;
    /// Bound address.
    fn local_addr(&self) -> io::Result<SocketAddr>;
}

impl Acceptor for TcpListener {
    fn accept_conn(&self) -> io::Result<(TcpStream, SocketAddr)> {
        self.accept()
    }
    fn local_addr(&self) -> io::Result<SocketAddr> {
        TcpListener::local_addr(self)
    }
}

// ------------------------------------------------------------ deadlines

/// Shared per-connection read deadline, armed by the worker before each
/// request and checked by [`DeadlineStream`] on every read.
#[derive(Debug, Default)]
struct DeadlineCell(Mutex<Option<Instant>>);

impl DeadlineCell {
    fn arm(&self, until: Instant) {
        *self.0.lock().expect("deadline poisoned") = Some(until);
    }
    fn disarm(&self) {
        *self.0.lock().expect("deadline poisoned") = None;
    }
    fn get(&self) -> Option<Instant> {
        *self.0.lock().expect("deadline poisoned")
    }
}

/// A `TcpStream` reader that enforces a wall-clock deadline rather than
/// a per-read timeout: each `read` re-checks the remaining budget, so a
/// peer feeding one byte at a time exhausts the budget instead of
/// resetting it (the slow-loris hole in plain `set_read_timeout`).
///
/// The stream is the connection's single shared descriptor (see
/// [`Conn`]): `Arc`, not `try_clone`, so C10k costs 10k fds, not 30k.
struct DeadlineStream {
    stream: Arc<TcpStream>,
    deadline: Arc<DeadlineCell>,
}

impl Read for DeadlineStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            let timeout = match self.deadline.get() {
                Some(d) => {
                    let rem = d.saturating_duration_since(Instant::now());
                    if rem.is_zero() {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "read budget exhausted",
                        ));
                    }
                    // set_read_timeout rejects zero; clamp up.
                    Some(rem.max(Duration::from_millis(1)))
                }
                None => None,
            };
            self.stream.set_read_timeout(timeout)?;
            match (&*self.stream).read(buf) {
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    // Socket timer fired; loop re-checks the deadline and
                    // errors out if the budget is truly gone.
                    continue;
                }
                other => return other,
            }
        }
    }
}

// ------------------------------------------------------- conn accounting

/// Live-connection registry: socket clones for hard shutdown, per-client
/// in-flight counts for fairness. Entries are released by [`ConnGuard`]
/// **on drop**, so a panicking handler cannot leak them (the bug the old
/// `ConnTracker::release`-after-handler call had).
#[derive(Default)]
struct Registry {
    next: AtomicU64,
    inner: Mutex<RegistryInner>,
}

#[derive(Default)]
struct RegistryInner {
    conns: HashMap<u64, Arc<TcpStream>>,
    per_client: HashMap<IpAddr, usize>,
}

enum Admission {
    Admitted(ConnGuard),
    /// Per-client fairness cap hit.
    ClientCap,
    /// Global connection cap hit.
    Full,
}

impl Registry {
    fn admit(
        self: &Arc<Registry>,
        stream: &Arc<TcpStream>,
        peer: IpAddr,
        cfg: &FrontendConfig,
        stats: &Arc<FrontendStats>,
    ) -> Admission {
        let mut inner = self.inner.lock().expect("registry poisoned");
        if inner.conns.len() >= cfg.max_conns {
            return Admission::Full;
        }
        let slot = inner.per_client.entry(peer).or_insert(0);
        if *slot >= cfg.max_per_client {
            return Admission::ClientCap;
        }
        *slot += 1;
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        inner.conns.insert(id, Arc::clone(stream));
        drop(inner);
        stats.active.fetch_add(1, Ordering::Relaxed);
        Admission::Admitted(ConnGuard {
            registry: Arc::clone(self),
            stats: Arc::clone(stats),
            id,
            peer,
        })
    }

    fn release(&self, id: u64, peer: IpAddr) {
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner.conns.remove(&id);
        if let Some(n) = inner.per_client.get_mut(&peer) {
            *n -= 1;
            if *n == 0 {
                inner.per_client.remove(&peer);
            }
        }
    }

    /// Hard-closes every live socket so blocked reads/writes fail now
    /// instead of waiting out their budgets (shutdown path).
    fn close_all(&self) {
        for conn in self.inner.lock().expect("registry poisoned").conns.values() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// RAII token for one admitted connection; releases the registry entry,
/// the per-client slot, and the active gauge on drop — on every path,
/// including unwinding out of a panicked handler.
struct ConnGuard {
    registry: Arc<Registry>,
    stats: Arc<FrontendStats>,
    id: u64,
    peer: IpAddr,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.registry.release(self.id, self.peer);
        self.stats.active.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One live connection with its buffered reader (kept across parkings so
/// pipelined bytes survive) and write half. Reader, writer, and the
/// registry's shutdown handle all share **one** descriptor (`Arc`): a
/// parked connection costs exactly one fd.
struct Conn {
    reader: BufReader<DeadlineStream>,
    out: Arc<TcpStream>,
    deadline: Arc<DeadlineCell>,
    last_active: Instant,
    /// The socket's `O_NONBLOCK` mode, tracked so that each switch costs
    /// a syscall only when the mode actually changes: parked sockets stay
    /// non-blocking across sweeps, and served ones stay blocking.
    nonblocking: bool,
    _guard: ConnGuard,
}

/// What a peek said about a socket.
enum Ready {
    Data,
    Eof,
    Idle,
}

impl Conn {
    fn new(stream: Arc<TcpStream>, guard: ConnGuard, cfg: &FrontendConfig) -> io::Result<Conn> {
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(cfg.write_budget))?;
        let out = Arc::clone(&stream);
        let deadline = Arc::new(DeadlineCell::default());
        let reader = BufReader::with_capacity(
            READ_BUF,
            DeadlineStream {
                stream,
                deadline: Arc::clone(&deadline),
            },
        );
        Ok(Conn {
            reader,
            out,
            deadline,
            last_active: Instant::now(),
            nonblocking: false,
            _guard: guard,
        })
    }

    fn set_nonblocking(&mut self, on: bool) -> io::Result<()> {
        if self.nonblocking != on {
            self.out.set_nonblocking(on)?;
            self.nonblocking = on;
        }
        Ok(())
    }

    /// Whether the next request has begun: buffered pipelined bytes
    /// first, then a peek at the socket. `wait: None` peeks without
    /// blocking (and leaves the socket non-blocking, ready to park);
    /// `Some(d)` blocks for at most `d`.
    fn ready(&mut self, wait: Option<Duration>) -> io::Result<Ready> {
        if !self.reader.buffer().is_empty() {
            return Ok(Ready::Data);
        }
        match wait {
            None => self.set_nonblocking(true)?,
            Some(d) => {
                self.set_nonblocking(false)?;
                // set_read_timeout rejects zero; clamp up.
                self.out
                    .set_read_timeout(Some(d.max(Duration::from_millis(1))))?;
            }
        }
        let mut probe = [0u8; 1];
        match self.out.peek(&mut probe) {
            Ok(0) => Ok(Ready::Eof),
            Ok(_) => Ok(Ready::Data),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                Ok(Ready::Idle)
            }
            Err(e) => Err(e),
        }
    }
}

// ------------------------------------------------------- queue + parking

/// Bounded MPMC queue of ready connections (mutex + condvar; the queue
/// hands whole connections to workers, so the lock is held for a push or
/// pop only).
struct ConnQueue {
    inner: Mutex<QueueInner>,
    takeable: Condvar,
    cap: usize,
    stats: Arc<FrontendStats>,
}

struct QueueInner {
    q: VecDeque<Conn>,
    /// Workers blocked in [`ConnQueue::pop`].
    idle: usize,
    closed: bool,
}

impl ConnQueue {
    fn new(cap: usize, stats: Arc<FrontendStats>) -> ConnQueue {
        ConnQueue {
            inner: Mutex::new(QueueInner {
                q: VecDeque::new(),
                idle: 0,
                closed: false,
            }),
            takeable: Condvar::new(),
            cap,
            stats,
        }
    }

    /// Enqueues, or hands the connection back when full/closed (the
    /// caller sheds or parks it). The `Err` is a hand-back channel, not
    /// an error: the caller immediately takes ownership again.
    #[allow(clippy::result_large_err)]
    fn push(&self, conn: Conn) -> Result<(), Conn> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        if inner.closed || inner.q.len() >= self.cap {
            return Err(conn);
        }
        inner.q.push_back(conn);
        self.stats.queued.fetch_add(1, Ordering::Relaxed);
        drop(inner);
        self.takeable.notify_one();
        Ok(())
    }

    /// Blocks for the next ready connection; `None` once closed.
    fn pop(&self) -> Option<Conn> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            if let Some(conn) = inner.q.pop_front() {
                self.stats.queued.fetch_sub(1, Ordering::Relaxed);
                return Some(conn);
            }
            if inner.closed {
                return None;
            }
            inner.idle += 1;
            inner = self.takeable.wait(inner).expect("queue poisoned");
            inner.idle -= 1;
        }
    }

    /// Whether a worker may wait on an idle connection: more workers are
    /// idle than connections are queued, so every queued connection has a
    /// worker on its way and one is left for whatever arrives next.
    fn can_wait(&self) -> bool {
        let inner = self.inner.lock().expect("queue poisoned");
        inner.idle > inner.q.len() && !inner.closed
    }

    fn close(&self) {
        let mut inner = self.inner.lock().expect("queue poisoned");
        inner.closed = true;
        let drained = inner.q.len();
        inner.q.clear(); // drops conns → RAII guards release
        self.stats
            .queued
            .fetch_sub(drained as u64, Ordering::Relaxed);
        drop(inner);
        self.takeable.notify_all();
    }
}

/// Idle keep-alive connections between requests. One poller thread
/// sweeps the lot every `poll_interval`, promoting readable connections
/// to the queue and reaping ones idle past the budget.
struct ParkingLot {
    inner: Mutex<LotInner>,
}

struct LotInner {
    parked: Vec<Conn>,
    closed: bool,
}

impl ParkingLot {
    fn new() -> ParkingLot {
        ParkingLot {
            inner: Mutex::new(LotInner {
                parked: Vec::new(),
                closed: false,
            }),
        }
    }

    /// Parks `conn` with its socket non-blocking, the mode the poller's
    /// sweeps peek it in; a socket that cannot switch is broken and drops
    /// here. Hand-back `Err` (lot closed), same as `ConnQueue::push`.
    #[allow(clippy::result_large_err)]
    fn park(&self, mut conn: Conn) -> Result<(), Conn> {
        if conn.set_nonblocking(true).is_err() {
            return Ok(());
        }
        let mut inner = self.inner.lock().expect("lot poisoned");
        if inner.closed {
            return Err(conn);
        }
        inner.parked.push(conn);
        Ok(())
    }

    fn take_all(&self) -> Vec<Conn> {
        std::mem::take(&mut self.inner.lock().expect("lot poisoned").parked)
    }

    fn close(&self) {
        let mut inner = self.inner.lock().expect("lot poisoned");
        inner.closed = true;
        inner.parked.clear(); // drops conns → RAII guards release
    }
}

// -------------------------------------------------------------- frontend

/// The front end itself. Construct with [`Frontend::start`]; the
/// returned handle stops everything on [`FrontendHandle::stop`] or drop.
pub struct Frontend;

impl Frontend {
    /// Starts the front end on a bound listener.
    pub fn start<S: Service>(
        listener: TcpListener,
        service: S,
        cfg: FrontendConfig,
        stats: Arc<FrontendStats>,
    ) -> io::Result<FrontendHandle> {
        Frontend::start_with(listener, service, cfg, stats)
    }

    /// Starts the front end over any [`Acceptor`] (tests inject accept
    /// failures here to pin the backoff behaviour).
    pub fn start_with<A: Acceptor, S: Service>(
        acceptor: A,
        service: S,
        cfg: FrontendConfig,
        stats: Arc<FrontendStats>,
    ) -> io::Result<FrontendHandle> {
        let addr = acceptor.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let registry = Arc::new(Registry::default());
        let queue = Arc::new(ConnQueue::new(cfg.queue_depth, Arc::clone(&stats)));
        let lot = Arc::new(ParkingLot::new());
        let service = Arc::new(service);
        let shed_payload: Arc<[u8]> = service.shed_response(cfg.retry_after).into();

        let mut threads = Vec::with_capacity(cfg.workers + 2);

        // Workers: serve ready connections, park idle ones.
        for _ in 0..cfg.workers.max(1) {
            let (queue, lot, stats, service, cfg) = (
                Arc::clone(&queue),
                Arc::clone(&lot),
                Arc::clone(&stats),
                Arc::clone(&service),
                cfg.clone(),
            );
            threads.push(std::thread::spawn(move || {
                worker_loop(&queue, &lot, &stats, service.as_ref(), &cfg)
            }));
        }

        // Poller: sweep the parking lot.
        {
            let (queue, lot, stats, stop, cfg) = (
                Arc::clone(&queue),
                Arc::clone(&lot),
                Arc::clone(&stats),
                Arc::clone(&stop),
                cfg.clone(),
            );
            threads.push(std::thread::spawn(move || {
                poller_loop(&queue, &lot, &stats, &stop, &cfg)
            }));
        }

        // Accept loop: admission control, shedding, error backoff.
        {
            let (queue, registry, stats, stop, cfg) = (
                Arc::clone(&queue),
                Arc::clone(&registry),
                Arc::clone(&stats),
                Arc::clone(&stop),
                cfg.clone(),
            );
            threads.push(std::thread::spawn(move || {
                accept_loop(
                    &acceptor,
                    &queue,
                    &registry,
                    &stats,
                    &stop,
                    &cfg,
                    &shed_payload,
                )
            }));
        }

        Ok(FrontendHandle {
            addr,
            stop,
            queue,
            lot,
            registry,
            stats,
            threads,
        })
    }
}

fn accept_loop<A: Acceptor>(
    acceptor: &A,
    queue: &ConnQueue,
    registry: &Arc<Registry>,
    stats: &Arc<FrontendStats>,
    stop: &AtomicBool,
    cfg: &FrontendConfig,
    shed_payload: &[u8],
) {
    loop {
        let accepted = acceptor.accept_conn();
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let (stream, peer) = match accepted {
            Ok(pair) => pair,
            Err(_) => {
                // EMFILE and friends: hot-spinning `continue` here burns
                // 100% CPU exactly when the box is already in trouble.
                // Count it, back off, try again.
                stats.accept_errors.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(cfg.accept_error_backoff);
                continue;
            }
        };
        stats.accepted.fetch_add(1, Ordering::Relaxed);
        let stream = Arc::new(stream);
        match registry.admit(&stream, peer.ip(), cfg, stats) {
            Admission::Admitted(guard) => {
                let Ok(conn) = Conn::new(stream, guard, cfg) else {
                    continue; // socket died between accept and setup
                };
                if let Err(conn) = queue.push(conn) {
                    // Ready queue at capacity: shed rather than queue
                    // unboundedly (the conn's guard releases on drop).
                    stats.sheds.fetch_add(1, Ordering::Relaxed);
                    shed(&conn.out, shed_payload);
                }
            }
            Admission::ClientCap => {
                stats.client_rejects.fetch_add(1, Ordering::Relaxed);
                shed(&stream, shed_payload);
            }
            Admission::Full => {
                stats.sheds.fetch_add(1, Ordering::Relaxed);
                shed(&stream, shed_payload);
            }
        }
    }
}

/// Best-effort canned-429 write, then close.
fn shed(stream: &TcpStream, payload: &[u8]) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let mut out: &TcpStream = stream;
    let _ = out.write_all(payload);
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

fn poller_loop(
    queue: &ConnQueue,
    lot: &ParkingLot,
    stats: &Arc<FrontendStats>,
    stop: &AtomicBool,
    cfg: &FrontendConfig,
) {
    while !stop.load(Ordering::SeqCst) {
        let sweep_started = Instant::now();
        let mut still_parked = Vec::new();
        for mut conn in lot.take_all() {
            match conn.ready(None) {
                Ok(Ready::Data) => {
                    if let Err(conn) = queue.push(conn) {
                        // Queue full: keep it parked — established
                        // connections see latency under overload, not
                        // drops (sheds happen at accept).
                        still_parked.push(conn);
                    }
                }
                Ok(Ready::Idle) => {
                    if conn.last_active.elapsed() >= cfg.idle_timeout {
                        // Reclaim: dropping the connection closes it.
                        stats.idle_reaped.fetch_add(1, Ordering::Relaxed);
                    } else {
                        still_parked.push(conn);
                    }
                }
                Ok(Ready::Eof) | Err(_) => {} // client gone; drop
            }
        }
        stats
            .parked
            .store(still_parked.len() as u64, Ordering::Relaxed);
        for conn in still_parked {
            if lot.park(conn).is_err() {
                break; // closed mid-sweep; remaining conns drop
            }
        }
        // Sleep out the remainder of the interval (a huge lot can make
        // the sweep itself take longer than the cadence).
        let spent = sweep_started.elapsed();
        if let Some(rest) = cfg.poll_interval.checked_sub(spent) {
            std::thread::sleep(rest.max(Duration::from_millis(1)));
        }
    }
    lot.close();
    stats.parked.store(0, Ordering::Relaxed);
}

/// Where a worker leaves a connection after a serving slice.
enum SliceEnd {
    Close,
    Park(Conn),
    Rotate(Conn),
}

fn worker_loop(
    queue: &ConnQueue,
    lot: &ParkingLot,
    stats: &Arc<FrontendStats>,
    service: &dyn Service,
    cfg: &FrontendConfig,
) {
    while let Some(conn) = queue.pop() {
        // A panicking handler must cost exactly one connection — the
        // worker survives, and the conn's RAII guard releases its
        // registry entry and gauges during unwind.
        match catch_unwind(AssertUnwindSafe(|| {
            serve_slice(conn, queue, stats, service, cfg)
        })) {
            Ok(SliceEnd::Close) => {}
            Ok(SliceEnd::Park(conn)) => {
                let _ = lot.park(conn); // Err(closed) → conn drops
            }
            Ok(SliceEnd::Rotate(conn)) => {
                // Fairness rotation for pipelining clients: back through
                // the queue; if full, the lot will re-promote it.
                if let Err(conn) = queue.push(conn) {
                    let _ = lot.park(conn);
                }
            }
            Err(_) => {
                stats.panics.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

fn serve_slice(
    mut conn: Conn,
    queue: &ConnQueue,
    stats: &Arc<FrontendStats>,
    service: &dyn Service,
    cfg: &FrontendConfig,
) -> SliceEnd {
    for _ in 0..MAX_REQUESTS_PER_SLICE {
        // A keep-alive client sends its next request soon after the
        // answer: wait for it here rather than behind a sweep, for as
        // long as waiting holds up no other work. Each wait lasts at most
        // one `poll_interval` and the guard is re-read after it, so a
        // connection queued meanwhile is taken within one cadence.
        let mut waited = false;
        loop {
            let wait = queue.can_wait().then_some(cfg.poll_interval);
            let ready = conn.ready(wait);
            waited |= wait.is_some();
            match ready {
                Ok(Ready::Data) => {
                    if waited {
                        stats.waits_served.fetch_add(1, Ordering::Relaxed);
                    }
                    break;
                }
                Ok(Ready::Eof) | Err(_) => return SliceEnd::Close,
                Ok(Ready::Idle) => {
                    if conn.last_active.elapsed() >= cfg.idle_timeout {
                        stats.idle_reaped.fetch_add(1, Ordering::Relaxed);
                        return SliceEnd::Close;
                    }
                    if wait.is_none() {
                        if waited {
                            stats.waits_parked.fetch_add(1, Ordering::Relaxed);
                        }
                        return SliceEnd::Park(conn);
                    }
                }
            }
        }
        // Bytes are waiting: the deadline reader needs a blocking socket
        // (a non-blocking one would spin it); arm the mid-request read
        // budget and serve.
        if conn.set_nonblocking(false).is_err() {
            return SliceEnd::Close;
        }
        let started = Instant::now();
        conn.deadline.arm(started + cfg.read_budget);
        let mut out: &TcpStream = &conn.out;
        let outcome = service.serve_one(&mut conn.reader, &mut out);
        conn.deadline.disarm();
        match outcome {
            ServeOutcome::Served { keep } => {
                stats.requests.fetch_add(1, Ordering::Relaxed);
                if started.elapsed() > cfg.request_deadline {
                    stats.deadline_overruns.fetch_add(1, Ordering::Relaxed);
                }
                if !keep {
                    return SliceEnd::Close;
                }
                conn.last_active = Instant::now();
            }
            ServeOutcome::CleanClose => return SliceEnd::Close,
            ServeOutcome::TimedOut => {
                stats.read_timeouts.fetch_add(1, Ordering::Relaxed);
                return SliceEnd::Close;
            }
            ServeOutcome::Fatal => {
                stats.write_errors.fetch_add(1, Ordering::Relaxed);
                return SliceEnd::Close;
            }
        }
    }
    SliceEnd::Rotate(conn)
}

/// Handle to a running front end; stops and joins everything on
/// [`stop`](FrontendHandle::stop) or drop.
pub struct FrontendHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    queue: Arc<ConnQueue>,
    lot: Arc<ParkingLot>,
    registry: Arc<Registry>,
    stats: Arc<FrontendStats>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl FrontendHandle {
    /// Bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live stats (shared with the block passed to [`Frontend::start`]).
    pub fn stats(&self) -> &Arc<FrontendStats> {
        &self.stats
    }

    /// Stops the front end: accept loop, workers, poller, and every live
    /// connection (hard-closed), then joins all threads.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop.
        let _ = TcpStream::connect(self.addr);
        // Wake workers (dropping queued conns) and empty the lot.
        self.queue.close();
        self.lot.close();
        // Hard-close live sockets so in-flight reads/writes fail now
        // instead of waiting out their budgets.
        self.registry.close_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for FrontendHandle {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            self.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Line-echo protocol: one request = one `\n`-terminated line, echoed
    /// back as `echo: <line>`. `quit` closes, `panic` panics the handler
    /// (exercising worker panic containment), `block` parks the handler
    /// on a gate until the test opens it (exercising queue bounds).
    struct EchoService {
        gate: Mutex<bool>,
        opened: Condvar,
        /// `block` requests that reached the gate.
        blocked: AtomicUsize,
    }

    impl EchoService {
        fn new() -> EchoService {
            EchoService {
                gate: Mutex::new(true),
                opened: Condvar::new(),
                blocked: AtomicUsize::new(0),
            }
        }

        fn closed_gate() -> EchoService {
            EchoService {
                gate: Mutex::new(false),
                ..EchoService::new()
            }
        }

        fn open_gate(&self) {
            *self.gate.lock().unwrap() = true;
            self.opened.notify_all();
        }
    }

    impl Service for EchoService {
        fn serve_one(&self, mut reader: &mut dyn BufRead, mut out: &mut dyn Write) -> ServeOutcome {
            let mut line = String::new();
            match (&mut reader).read_line(&mut line) {
                Ok(0) => ServeOutcome::CleanClose,
                Ok(_) => {
                    let line = line.trim_end();
                    match line {
                        "panic" => panic!("handler exploded"),
                        "quit" => {
                            let _ = writeln!(&mut out, "bye");
                            ServeOutcome::Served { keep: false }
                        }
                        "block" => {
                            self.blocked.fetch_add(1, Ordering::SeqCst);
                            let mut open = self.gate.lock().unwrap();
                            while !*open {
                                open = self.opened.wait(open).unwrap();
                            }
                            drop(open);
                            let _ = writeln!(&mut out, "unblocked");
                            ServeOutcome::Served { keep: true }
                        }
                        other => match writeln!(&mut out, "echo: {other}") {
                            Ok(()) => ServeOutcome::Served { keep: true },
                            Err(_) => ServeOutcome::Fatal,
                        },
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
                    ) =>
                {
                    ServeOutcome::TimedOut
                }
                Err(_) => ServeOutcome::Fatal,
            }
        }

        fn shed_response(&self, retry_after: Duration) -> Vec<u8> {
            format!("BUSY retry-after={}\n", retry_after.as_secs()).into_bytes()
        }
    }

    fn tight_config() -> FrontendConfig {
        FrontendConfig {
            workers: 2,
            poll_interval: Duration::from_millis(5),
            ..FrontendConfig::default()
        }
    }

    fn start_echo(cfg: FrontendConfig) -> (FrontendHandle, Arc<FrontendStats>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stats = FrontendStats::shared();
        let h =
            Frontend::start_with(listener, EchoService::new(), cfg, Arc::clone(&stats)).unwrap();
        (h, stats)
    }

    fn send_line(s: &mut TcpStream, line: &str) -> String {
        // One write: `writeln!` on the bare socket writes the line and its
        // newline separately, and Nagle holds the newline until the
        // server's delayed ACK (tens of milliseconds).
        s.write_all(format!("{line}\n").as_bytes()).unwrap();
        read_reply(s)
    }

    /// Waits until `n` workers are idle in the queue, so a test that
    /// times the worker's wait does not race the worker threads' start.
    fn await_idle_workers(h: &FrontendHandle, n: usize) {
        eventually("workers idle", || h.queue.inner.lock().unwrap().idle == n);
    }

    fn read_reply(s: &mut TcpStream) -> String {
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = Vec::new();
        let mut byte = [0u8; 1];
        loop {
            match s.read(&mut byte) {
                Ok(0) => break,
                Ok(_) => {
                    buf.push(byte[0]);
                    if byte[0] == b'\n' {
                        break;
                    }
                }
                Err(e) => panic!("reply read failed: {e}"),
            }
        }
        String::from_utf8(buf).unwrap()
    }

    /// Polls until `pred` holds or the budget expires (sweeps and guard
    /// drops are asynchronous).
    fn eventually(what: &str, pred: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if pred() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("timed out waiting for: {what}");
    }

    #[test]
    fn keep_alive_round_trips_across_parkings() {
        // One worker, so it is never spare to wait: every idle connection
        // parks and each next request takes the promotion path.
        let cfg = FrontendConfig {
            workers: 1,
            ..tight_config()
        };
        let (h, stats) = start_echo(cfg);
        let mut s = TcpStream::connect(h.addr()).unwrap();
        assert_eq!(send_line(&mut s, "one"), "echo: one\n");
        // Idle long enough to be parked and swept at least once, then
        // prove the connection still answers (promotion path).
        eventually("parked", || stats.snapshot().parked == 1);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(send_line(&mut s, "two"), "echo: two\n");
        assert_eq!(send_line(&mut s, "quit"), "bye\n");
        // The worker books the request after writing the reply; poll.
        eventually("3 requests booked", || stats.snapshot().requests == 3);
        h.stop();
        assert_eq!(stats.snapshot().active, 0);
    }

    #[test]
    fn next_request_after_a_short_gap_skips_the_sweep() {
        // A sweep-sized cadence, so any request that waits for the
        // poller is plainly visible.
        let poll = Duration::from_millis(200);
        let cfg = FrontendConfig {
            poll_interval: poll,
            ..tight_config()
        };
        let (h, stats) = start_echo(cfg);
        await_idle_workers(&h, 2);
        let mut s = TcpStream::connect(h.addr()).unwrap();
        assert_eq!(send_line(&mut s, "hello"), "echo: hello\n");
        for i in 0..20 {
            // A closed-loop client: the next request follows 1 ms after
            // the answer, as perfbench's clients send theirs.
            std::thread::sleep(Duration::from_millis(1));
            let started = Instant::now();
            assert_eq!(send_line(&mut s, &format!("r{i}")), format!("echo: r{i}\n"));
            let took = started.elapsed();
            assert!(
                took < Duration::from_millis(50),
                "round trip {i} took {took:?}: it waited for a sweep"
            );
        }
        let snap = stats.snapshot();
        assert!(snap.waits_served >= 20, "{snap:?}");
        assert_eq!(snap.waits_parked, 0, "{snap:?}");
        h.stop();
    }

    #[test]
    fn a_spare_worker_keeps_waiting_past_one_cadence() {
        // Gaps longer than one cadence: with a worker to spare, the
        // connection stays on its worker across them instead of parking,
        // so no request's latency depends on where a sweep falls.
        let poll = Duration::from_millis(100);
        let cfg = FrontendConfig {
            poll_interval: poll,
            ..tight_config()
        };
        let (h, stats) = start_echo(cfg);
        await_idle_workers(&h, 2);
        let mut s = TcpStream::connect(h.addr()).unwrap();
        assert_eq!(send_line(&mut s, "hello"), "echo: hello\n");
        for i in 0..3 {
            std::thread::sleep(poll * 5 / 2);
            assert_eq!(stats.snapshot().parked, 0, "parked after gap {i}");
            let started = Instant::now();
            assert_eq!(send_line(&mut s, &format!("r{i}")), format!("echo: r{i}\n"));
            let took = started.elapsed();
            assert!(took < poll / 2, "round trip {i} took {took:?}");
        }
        let snap = stats.snapshot();
        assert_eq!(snap.waits_parked, 0, "{snap:?}");
        assert!(snap.waits_served >= 3, "{snap:?}");
        h.stop();
    }

    #[test]
    fn a_sole_worker_serves_the_queue_instead_of_waiting() {
        // One worker, so no other worker is ever idle to take new work:
        // it must park an idle connection at once, never wait on it.
        let poll = Duration::from_millis(500);
        let cfg = FrontendConfig {
            workers: 1,
            poll_interval: poll,
            ..tight_config()
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stats = FrontendStats::shared();
        let service = Arc::new(EchoService::closed_gate());
        let h = Frontend::start_with(
            listener,
            BlockingProxy(Arc::clone(&service)),
            cfg,
            Arc::clone(&stats),
        )
        .unwrap();

        // A holds the worker in its handler while B's request arrives
        // and queues, so B's bytes are there when the worker gets to it.
        let mut a = TcpStream::connect(h.addr()).unwrap();
        a.write_all(b"block\n").unwrap();
        eventually("A in its handler", || {
            service.blocked.load(Ordering::SeqCst) == 1
        });
        let mut b = TcpStream::connect(h.addr()).unwrap();
        b.write_all(b"b\n").unwrap();
        eventually("B queued", || stats.snapshot().queued == 1);

        // A is answered and goes idle; B must not wait out a wait on A.
        let started = Instant::now();
        service.open_gate();
        assert_eq!(read_reply(&mut a), "unblocked\n");
        assert_eq!(read_reply(&mut b), "echo: b\n");
        let took = started.elapsed();
        assert!(took < poll / 2, "B waited {took:?} behind idle A");
        let snap = stats.snapshot();
        assert_eq!((snap.waits_served, snap.waits_parked), (0, 0), "{snap:?}");
        h.stop();
    }

    #[test]
    fn a_close_during_a_wait_releases_the_connection_at_once() {
        // A sweep far slower than the assertion below: only the waiting
        // worker can see this EOF in time.
        let poll = Duration::from_secs(1);
        let cfg = FrontendConfig {
            poll_interval: poll,
            ..tight_config()
        };
        let (h, stats) = start_echo(cfg);
        await_idle_workers(&h, 2);
        let mut s = TcpStream::connect(h.addr()).unwrap();
        assert_eq!(send_line(&mut s, "hi"), "echo: hi\n");
        // Past the poller's first sweep, so a parked connection would
        // wait for the next one.
        std::thread::sleep(poll / 10);
        let started = Instant::now();
        drop(s);
        eventually("conn released", || stats.snapshot().active == 0);
        let took = started.elapsed();
        assert!(took < poll / 3, "EOF seen only after {took:?}");
        assert_eq!(stats.snapshot().waits_parked, 0);
        h.stop();
    }

    #[test]
    fn panicking_handler_costs_one_connection_not_a_worker() {
        let cfg = FrontendConfig {
            workers: 1, // a dead worker would hang the follow-up request
            ..tight_config()
        };
        let (h, stats) = start_echo(cfg);

        let mut s = TcpStream::connect(h.addr()).unwrap();
        writeln!(s, "panic").unwrap();
        // The connection dies with the handler…
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut rest = Vec::new();
        let _ = s.read_to_end(&mut rest);

        // …but its RAII guard released the registry slot and gauge…
        eventually("active gauge back to 0", || stats.snapshot().active == 0);
        // …the worker books the panic once `catch_unwind` returns, after
        // the guard dropped the gauge during unwind, so wait for it…
        eventually("panic booked", || stats.snapshot().panics >= 1);
        assert_eq!(stats.snapshot().panics, 1);

        // …and the sole worker survived to serve the next connection.
        let mut s2 = TcpStream::connect(h.addr()).unwrap();
        assert_eq!(send_line(&mut s2, "alive"), "echo: alive\n");
        h.stop();
    }

    #[test]
    fn slow_loris_is_killed_at_the_read_budget() {
        let cfg = FrontendConfig {
            read_budget: Duration::from_millis(200),
            idle_timeout: Duration::from_secs(30), // isolate the read budget
            ..tight_config()
        };
        let (h, stats) = start_echo(cfg);
        let mut s = TcpStream::connect(h.addr()).unwrap();
        // Open a request (no terminating newline) and trickle: each byte
        // lands inside a poll interval, so a per-read timeout would never
        // fire. Only a wall-clock deadline kills this.
        let started = Instant::now();
        for _ in 0..100 {
            if s.write_all(b"x").is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let mut rest = Vec::new();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let _ = s.read_to_end(&mut rest); // server closed on us
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "slow-loris survived: {:?}",
            started.elapsed()
        );
        eventually("read timeout booked", || {
            stats.snapshot().read_timeouts >= 1
        });
        eventually("conn released", || stats.snapshot().active == 0);
        h.stop();
    }

    #[test]
    fn idle_connection_is_reaped_at_the_idle_budget() {
        let cfg = FrontendConfig {
            idle_timeout: Duration::from_millis(150),
            ..tight_config()
        };
        let (h, stats) = start_echo(cfg);
        let mut s = TcpStream::connect(h.addr()).unwrap();
        assert_eq!(send_line(&mut s, "hi"), "echo: hi\n");
        // Now go quiet past the idle budget: the server must reap the idle
        // connection (fd reclaim) — the worker waiting on it, or the
        // poller once it parks — seen client-side as EOF.
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut rest = Vec::new();
        let n = s.read_to_end(&mut rest).unwrap();
        assert_eq!(n, 0, "expected server-side close, got {rest:?}");
        eventually("idle reap booked", || stats.snapshot().idle_reaped >= 1);
        eventually("conn released", || stats.snapshot().active == 0);
        h.stop();
    }

    #[test]
    fn per_client_cap_sheds_with_the_canned_response() {
        let cfg = FrontendConfig {
            max_per_client: 1,
            retry_after: Duration::from_secs(7),
            ..tight_config()
        };
        let (h, stats) = start_echo(cfg);
        let mut first = TcpStream::connect(h.addr()).unwrap();
        assert_eq!(send_line(&mut first, "hold"), "echo: hold\n");
        // Same client IP, second in-flight connection: rejected with the
        // canned payload carrying the advertised Retry-After.
        let mut second = TcpStream::connect(h.addr()).unwrap();
        assert_eq!(read_reply(&mut second), "BUSY retry-after=7\n");
        eventually("client reject booked", || {
            stats.snapshot().client_rejects == 1
        });
        // The held connection is unaffected.
        assert_eq!(send_line(&mut first, "still"), "echo: still\n");
        h.stop();
    }

    #[test]
    fn global_cap_and_full_queue_both_shed() {
        // One worker wedged on a gated request + queue_depth 1: the third
        // connection with bytes waiting must be shed, not queued
        // unboundedly (the failure mode of thread-per-connection).
        let cfg = FrontendConfig {
            workers: 1,
            queue_depth: 1,
            max_conns: 64,
            ..tight_config()
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stats = FrontendStats::shared();
        let service = Arc::new(EchoService::closed_gate());
        let h = Frontend::start_with(
            listener,
            BlockingProxy(Arc::clone(&service)),
            cfg,
            Arc::clone(&stats),
        )
        .unwrap();

        let mut wedged = TcpStream::connect(h.addr()).unwrap();
        writeln!(wedged, "block").unwrap();
        eventually("worker wedged", || stats.snapshot().queued == 0);
        std::thread::sleep(Duration::from_millis(30)); // let the pop land

        // Fills the ready queue (accept pushes straight into it).
        let _queued = TcpStream::connect(h.addr()).unwrap();
        eventually("queue full", || stats.snapshot().queued == 1);

        // Shed: queue at capacity.
        let mut shed_conn = TcpStream::connect(h.addr()).unwrap();
        assert!(read_reply(&mut shed_conn).starts_with("BUSY"));
        eventually("shed booked", || stats.snapshot().sheds >= 1);

        service.open_gate();
        assert_eq!(read_reply(&mut wedged), "unblocked\n");
        h.stop();
    }

    /// Delegates to a shared [`EchoService`] so tests keep a handle to
    /// the gate after the front end takes ownership of the service.
    struct BlockingProxy(Arc<EchoService>);

    impl Service for BlockingProxy {
        fn serve_one(&self, reader: &mut dyn BufRead, out: &mut dyn Write) -> ServeOutcome {
            self.0.serve_one(reader, out)
        }
        fn shed_response(&self, retry_after: Duration) -> Vec<u8> {
            self.0.shed_response(retry_after)
        }
    }

    /// Fails `accept` a fixed number of times before delegating to a real
    /// listener — pins the EMFILE backoff path (the old loops hot-spun).
    struct FlakyAcceptor {
        listener: TcpListener,
        failures_left: AtomicUsize,
    }

    impl Acceptor for FlakyAcceptor {
        fn accept_conn(&self) -> io::Result<(TcpStream, SocketAddr)> {
            let left = self.failures_left.load(Ordering::SeqCst);
            if left > 0 {
                self.failures_left.store(left - 1, Ordering::SeqCst);
                return Err(io::Error::other("too many open files (simulated)"));
            }
            self.listener.accept()
        }
        fn local_addr(&self) -> io::Result<SocketAddr> {
            self.listener.local_addr()
        }
    }

    #[test]
    fn accept_errors_back_off_instead_of_spinning() {
        const FAILURES: usize = 3;
        let backoff = Duration::from_millis(50);
        let cfg = FrontendConfig {
            accept_error_backoff: backoff,
            ..tight_config()
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let acceptor = FlakyAcceptor {
            listener,
            failures_left: AtomicUsize::new(FAILURES),
        };
        let stats = FrontendStats::shared();
        let started = Instant::now();
        let h =
            Frontend::start_with(acceptor, EchoService::new(), cfg, Arc::clone(&stats)).unwrap();

        // Service resumes once the fault clears…
        let mut s = TcpStream::connect(h.addr()).unwrap();
        assert_eq!(send_line(&mut s, "back"), "echo: back\n");
        // …every failure was counted (operators can alarm on it), and the
        // loop slept through each one instead of hot-spinning.
        assert_eq!(stats.snapshot().accept_errors, FAILURES as u64);
        assert!(
            started.elapsed() >= backoff * FAILURES as u32,
            "accept loop did not back off: {:?}",
            started.elapsed()
        );
        h.stop();
    }
}
