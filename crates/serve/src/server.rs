//! The daemon: admission, bounded queue, worker pool, drain.
//!
//! ```text
//!            accept loop                bounded queue           workers
//!  client ──► conn thread ── header ──► sync_channel(cap) ──► catch_unwind {
//!               │   │                     │ full? shed           RunScope
//!               │   └ size check          ▼                      cache / ECO
//!               │     toolarge         typed ERR                 run_flow_degraded
//!               ▼                      overloaded                }
//!             writer ◄──────────────── one-line response ────────┘
//! ```
//!
//! Load discipline in one sentence: *everything unbounded is
//! refused, everything slow is degraded, everything crashing is
//! contained.* The queue has a fixed capacity and [`try_send`]
//! semantics (shed, never buffer); the connection table has a fixed
//! capacity; request bodies have a byte limit enforced before the
//! body is read; deadlines become [`hls_ir::Budget`] wall clocks so
//! the ladder degrades instead of overrunning; panics are caught per
//! request under a `serve:req<id>` fault-injection scope.
//!
//! [`try_send`]: std::sync::mpsc::SyncSender::try_send

use crate::cache::{CachedAnswer, ScheduleCache};
use crate::protocol::{
    self, Accepted, CacheStatus, RejectKind, Rejected, Request, Response, MAX_HEADER_BYTES,
};
use hls_flow::{eco_flow, run_flow_degraded, EcoBase, FlowConfig, FlowError};
use hls_ir::faultinject::{self, RunScope};
use hls_ir::textfmt::{self, Limits};
use hls_ir::{canon, Budget};
use hls_obs::metrics::{HistCell, MetricsSnapshot};
use std::io::{self, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Recovers the inner value of a poisoned lock: the daemon's shared
/// state (stats, cache, writers) stays usable after a caught panic.
fn unpoisoned<T>(r: Result<T, std::sync::PoisonError<T>>) -> T {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Where the daemon listens.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BindAddr {
    /// `tcp:<host>:<port>` (port 0 picks an ephemeral port).
    Tcp(String),
    /// `unix:<path>` (a stale socket file is replaced).
    #[cfg(unix)]
    Unix(PathBuf),
}

impl BindAddr {
    /// Parses `tcp:host:port` or `unix:/path`.
    pub fn parse(s: &str) -> Result<BindAddr, String> {
        if let Some(rest) = s.strip_prefix("tcp:") {
            if rest.rsplit_once(':').is_none() {
                return Err(format!("tcp address `{rest}` needs host:port"));
            }
            return Ok(BindAddr::Tcp(rest.to_string()));
        }
        #[cfg(unix)]
        if let Some(rest) = s.strip_prefix("unix:") {
            return Ok(BindAddr::Unix(PathBuf::from(rest)));
        }
        Err(format!("bad bind address `{s}` (want tcp:host:port or unix:/path)"))
    }
}

impl std::fmt::Display for BindAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BindAddr::Tcp(a) => write!(f, "tcp:{a}"),
            #[cfg(unix)]
            BindAddr::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

/// A connected byte stream over either transport.
pub(crate) enum Stream {
    /// TCP.
    Tcp(TcpStream),
    /// Unix domain socket.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    pub(crate) fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            #[cfg(unix)]
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
        }
    }

    pub(crate) fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(d),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(d),
        }
    }

    pub(crate) fn connect(addr: &BindAddr) -> io::Result<Stream> {
        match addr {
            BindAddr::Tcp(a) => TcpStream::connect(a.as_str()).map(Stream::Tcp),
            #[cfg(unix)]
            BindAddr::Unix(p) => UnixStream::connect(p).map(Stream::Unix),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nb),
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(nb),
        }
    }

    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
        }
    }
}

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads running the flow.
    pub workers: usize,
    /// Admission queue capacity; a full queue sheds with
    /// [`RejectKind::Overloaded`].
    pub queue_capacity: usize,
    /// Concurrent connection cap; beyond it new connections are
    /// refused with [`RejectKind::Overloaded`].
    pub max_connections: usize,
    /// Request body byte cap (also the parser's
    /// [`Limits::max_bytes`]).
    pub max_request_bytes: usize,
    /// Deadline applied when the request carries none.
    pub default_deadline: Duration,
    /// Upper clamp on any requested deadline.
    pub max_deadline: Duration,
    /// Schedule-cache entry cap (0 disables the cache).
    pub cache_capacity: usize,
    /// Flow configuration shared by all requests. Its `budget` is
    /// combined (pointwise tighter) with each request's own deadline
    /// budget.
    pub flow: FlowConfig,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            max_connections: 64,
            max_request_bytes: 1 << 20,
            default_deadline: Duration::from_millis(2_000),
            max_deadline: Duration::from_secs(30),
            cache_capacity: 256,
            flow: FlowConfig::default(),
        }
    }
}

/// The daemon's own accounting: the only place serve events are
/// counted. Always on (independent of the `hls-obs` master switch) and
/// per instance, so two servers in one process never share a count.
#[derive(Default)]
struct Counters {
    /// Request headers successfully read.
    received: AtomicU64,
    /// Requests admitted into the queue.
    admitted: AtomicU64,
    /// Requests answered with an `OK` line.
    completed: AtomicU64,
    /// Received requests answered with an `ERR` line (any kind).
    rejected: AtomicU64,
    /// Requests shed by the full queue or connection table.
    shed: AtomicU64,
    /// Requests refused because the daemon was draining.
    drain_rejects: AtomicU64,
    /// Malformed headers or bodies.
    malformed: AtomicU64,
    /// Requests over the size limits.
    toolarge: AtomicU64,
    /// Deadline expiries (in queue or in flow).
    timeouts: AtomicU64,
    /// Requests answered `poisoned` (a caught panic).
    poisoned: AtomicU64,
    /// ECO-delta grafts answered from a cached base.
    eco_hits: AtomicU64,
    /// Bound-only answers (deepest ladder rung).
    bound_only: AtomicU64,
    /// `STATS` queries answered.
    stats_queries: AtomicU64,
    /// Jobs waiting in the admission queue.
    queue_depth: AtomicU64,
    /// Requests being scheduled by workers.
    in_flight: AtomicU64,
    /// Worker time per request, dequeue to answer.
    request_us: HistCell,
    /// Time a job spent queued before a worker picked it up.
    queue_wait_us: HistCell,
}

const RUNNING: u8 = 0;
const DRAINING: u8 = 1;
const STOPPED: u8 = 2;

/// How often blocked threads wake to poll the lifecycle state.
const POLL: Duration = Duration::from_millis(25);

struct Inner {
    state: AtomicU8,
    stats: Counters,
    conns: AtomicUsize,
    cache: Mutex<ScheduleCache>,
    cfg: ServeConfig,
    limits: Limits,
}

impl Inner {
    fn state(&self) -> u8 {
        self.state.load(Ordering::Acquire)
    }

    /// The one snapshot `STATS`, [`Server::stats`] and
    /// [`Server::shutdown`] render: this server's counters, then the
    /// process-global library metrics.
    fn snapshot(&self) -> MetricsSnapshot {
        let s = &self.stats;
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let cache = unpoisoned(self.cache.lock()).stats();
        let mut snap = MetricsSnapshot {
            counters: vec![
                ("serve_requests", load(&s.received)),
                ("serve_admitted", load(&s.admitted)),
                ("serve_completed", load(&s.completed)),
                ("serve_rejected", load(&s.rejected)),
                ("serve_shed", load(&s.shed)),
                ("serve_drain_rejects", load(&s.drain_rejects)),
                ("serve_malformed", load(&s.malformed)),
                ("serve_toolarge", load(&s.toolarge)),
                ("serve_timeouts", load(&s.timeouts)),
                ("serve_poisoned", load(&s.poisoned)),
                ("serve_eco_hits", load(&s.eco_hits)),
                ("serve_bound_only", load(&s.bound_only)),
                ("stats_queries", load(&s.stats_queries)),
                ("cache_hits", cache.hits),
                ("cache_misses", cache.misses),
                ("cache_collisions", cache.collisions),
                ("cache_evictions", cache.evictions),
                ("queue_depth", load(&s.queue_depth)),
                ("in_flight", load(&s.in_flight)),
                ("connections", self.conns.load(Ordering::Relaxed) as u64),
            ],
            hists: vec![
                ("serve_request_us", s.request_us.snapshot()),
                ("serve_queue_wait_us", s.queue_wait_us.snapshot()),
            ],
        };
        let lib = hls_obs::metrics::snapshot();
        snap.counters.extend(lib.counters);
        snap.hists.extend(lib.hists);
        snap
    }
}

/// One admitted unit of work.
struct Job {
    req: Request,
    text: String,
    /// Wall deadline on the fault-injectable clock, so injected skew
    /// exercises the same expiry paths real overload does.
    deadline: Instant,
    /// When the job entered the queue (real clock), for the
    /// queue-wait histogram.
    enqueued: Instant,
    /// Trace id stamped on whatever response answers this request.
    trace: u64,
    writer: Arc<Mutex<Stream>>,
}

/// A running daemon. Dropping the handle without calling
/// [`shutdown`](Server::shutdown) stops it non-gracefully.
pub struct Server {
    inner: Arc<Inner>,
    addr: BindAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    tx: Option<SyncSender<Job>>,
    #[cfg(unix)]
    unix_path: Option<PathBuf>,
}

impl Server {
    /// Binds `addr` and starts the accept loop and worker pool.
    ///
    /// # Errors
    ///
    /// [`io::Error`] from binding or thread spawning.
    pub fn start(addr: &BindAddr, cfg: ServeConfig) -> io::Result<Server> {
        let (listener, bound, unix_path) = match addr {
            BindAddr::Tcp(a) => {
                let l = TcpListener::bind(a.as_str())?;
                let actual = l.local_addr()?;
                (Listener::Tcp(l), BindAddr::Tcp(actual.to_string()), None)
            }
            #[cfg(unix)]
            BindAddr::Unix(p) => {
                // A stale socket file from a previous run blocks the
                // bind; replacing it is the conventional remedy.
                let _ = std::fs::remove_file(p);
                let l = UnixListener::bind(p)?;
                (Listener::Unix(l), BindAddr::Unix(p.clone()), Some(p.clone()))
            }
        };
        listener.set_nonblocking(true)?;

        let limits = Limits {
            max_bytes: cfg.max_request_bytes,
            ..Limits::serving()
        };
        let inner = Arc::new(Inner {
            state: AtomicU8::new(RUNNING),
            stats: Counters::default(),
            conns: AtomicUsize::new(0),
            cache: Mutex::new(ScheduleCache::new(cfg.cache_capacity, limits.max_ops)),
            cfg: cfg.clone(),
            limits,
        });

        let (tx, rx) = std::sync::mpsc::sync_channel::<Job>(cfg.queue_capacity.max(1));
        let rx = Arc::new(Mutex::new(rx));

        let mut workers = Vec::with_capacity(cfg.workers.max(1));
        for w in 0..cfg.workers.max(1) {
            let inner = Arc::clone(&inner);
            let rx = Arc::clone(&rx);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{w}"))
                    .spawn(move || worker_loop(&inner, &rx))?,
            );
        }

        let accept = {
            let inner = Arc::clone(&inner);
            let tx = tx.clone();
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(&inner, &listener, &tx))?
        };

        Ok(Server {
            inner,
            addr: bound,
            accept: Some(accept),
            workers,
            tx: Some(tx),
            #[cfg(unix)]
            unix_path,
        })
    }

    /// The actually bound address (resolves `port 0`).
    pub fn addr(&self) -> &BindAddr {
        &self.addr
    }

    /// Stops admitting: new connections and new requests are refused
    /// with `draining`; queued work is answered bound-only; running
    /// work finishes under its own deadline.
    pub fn drain(&self) {
        let _ = self.inner.state.compare_exchange(
            RUNNING,
            DRAINING,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// Number of admitted-but-unanswered requests (queued or in
    /// flight).
    pub fn pending(&self) -> u64 {
        let s = &self.inner.stats;
        s.queue_depth.load(Ordering::Acquire) + s.in_flight.load(Ordering::Acquire)
    }

    /// The snapshot a `STATS` query serializes: this server's
    /// counters followed by the global library metrics.
    pub fn stats(&self) -> MetricsSnapshot {
        self.inner.snapshot()
    }

    /// Drains, waits for in-flight work (bounded by `grace`), stops
    /// every thread and returns the final [`stats`](Server::stats).
    pub fn shutdown(mut self, grace: Duration) -> MetricsSnapshot {
        self.drain();
        let gave_up = Instant::now() + grace;
        while self.pending() > 0 && Instant::now() < gave_up {
            std::thread::sleep(POLL);
        }
        self.inner.state.store(STOPPED, Ordering::Release);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Dropping the sender lets workers observe disconnection once
        // the queue is empty; connection threads exit on their next
        // poll tick.
        drop(self.tx.take());
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        #[cfg(unix)]
        if let Some(p) = self.unix_path.take() {
            let _ = std::fs::remove_file(p);
        }
        self.stats()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.inner.state.store(STOPPED, Ordering::Release);
        drop(self.tx.take());
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        #[cfg(unix)]
        if let Some(p) = self.unix_path.take() {
            let _ = std::fs::remove_file(p);
        }
    }
}

fn send_line(writer: &Arc<Mutex<Stream>>, resp: &Response) {
    let line = protocol::format_response(resp);
    let mut w = unpoisoned(writer.lock());
    // A vanished client is its own problem; the daemon must not be.
    let _ = w.write_all(line.as_bytes()).and_then(|()| w.flush());
}

fn accept_loop(inner: &Arc<Inner>, listener: &Listener, tx: &SyncSender<Job>) {
    loop {
        if inner.state() == STOPPED {
            return;
        }
        match listener.accept() {
            Ok(stream) => {
                let refuse = |kind: RejectKind, msg: &str| {
                    let resp = Response::Rejected(Rejected {
                        id: 0,
                        kind,
                        msg: msg.to_string(),
                        trace: 0,
                    });
                    if let Ok(clone) = stream.try_clone() {
                        send_line(&Arc::new(Mutex::new(clone)), &resp);
                    }
                };
                if inner.state() != RUNNING {
                    inner.stats.drain_rejects.fetch_add(1, Ordering::Relaxed);
                    refuse(RejectKind::Draining, "server is draining");
                    continue;
                }
                if inner.conns.load(Ordering::Acquire) >= inner.cfg.max_connections {
                    inner.stats.shed.fetch_add(1, Ordering::Relaxed);
                    refuse(
                        RejectKind::Overloaded,
                        &format!(
                            "connection table full (capacity {})",
                            inner.cfg.max_connections
                        ),
                    );
                    continue;
                }
                inner.conns.fetch_add(1, Ordering::AcqRel);
                let inner2 = Arc::clone(inner);
                let tx2 = tx.clone();
                let spawned = std::thread::Builder::new()
                    .name("serve-conn".into())
                    .spawn(move || {
                        connection_loop(&inner2, stream, &tx2);
                        inner2.conns.fetch_sub(1, Ordering::AcqRel);
                    });
                if spawned.is_err() {
                    inner.conns.fetch_sub(1, Ordering::AcqRel);
                    inner.stats.shed.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// Reads one `\n`-terminated line of at most `max` bytes, tolerating
/// read timeouts (polling the stop flag between them). `Ok(None)`
/// means clean EOF before any byte.
fn read_line_bounded(
    inner: &Inner,
    r: &mut BufReader<Stream>,
    max: usize,
) -> io::Result<Option<String>> {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        if inner.state() == STOPPED {
            return Err(io::Error::new(io::ErrorKind::Interrupted, "stopping"));
        }
        match r.read(&mut byte) {
            Ok(0) => {
                if buf.is_empty() {
                    return Ok(None);
                }
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    return Ok(Some(String::from_utf8_lossy(&buf).into_owned()));
                }
                if buf.len() >= max {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("header exceeds {max} bytes"),
                    ));
                }
                buf.push(byte[0]);
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut => {}
            Err(e) => return Err(e),
        }
    }
}

/// Reads exactly `n` bytes, tolerating read timeouts.
fn read_exact_bounded(inner: &Inner, r: &mut BufReader<Stream>, n: usize) -> io::Result<Vec<u8>> {
    let mut buf = vec![0u8; n];
    let mut got = 0;
    while got < n {
        if inner.state() == STOPPED {
            return Err(io::Error::new(io::ErrorKind::Interrupted, "stopping"));
        }
        match r.read(&mut buf[got..]) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(k) => got += k,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut => {}
            Err(e) => return Err(e),
        }
    }
    Ok(buf)
}

fn connection_loop(inner: &Arc<Inner>, stream: Stream, tx: &SyncSender<Job>) {
    let _ = stream.set_read_timeout(Some(POLL));
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);

    loop {
        let line = match read_line_bounded(inner, &mut reader, MAX_HEADER_BYTES) {
            Ok(Some(line)) => line,
            Ok(None) | Err(_) => return,
        };
        if line.trim().is_empty() {
            continue;
        }
        // STATS is answered inline by the connection thread — it
        // never enters the queue, so it works even when the daemon is
        // draining or the workers are saturated. That makes it a
        // trustworthy probe of an unhealthy daemon.
        if protocol::is_stats_header(&line) {
            match protocol::parse_stats_header(&line) {
                Ok(sid) => {
                    inner.stats.stats_queries.fetch_add(1, Ordering::Relaxed);
                    let json = hls_obs::export::metrics_json(&inner.snapshot());
                    send_line(&writer, &Response::Stats(protocol::StatsReply { id: sid, json }));
                }
                Err(e) => {
                    inner.stats.malformed.fetch_add(1, Ordering::Relaxed);
                    send_line(
                        &writer,
                        &Response::Rejected(Rejected {
                            id: 0,
                            kind: RejectKind::Malformed,
                            msg: e.to_string(),
                            trace: 0,
                        }),
                    );
                }
            }
            continue;
        }
        let req = match protocol::parse_request_header(&line) {
            Ok(r) => r,
            Err(e) => {
                // The body length is unknown for an unparsable
                // header, so re-framing is impossible: answer and
                // close.
                inner.stats.malformed.fetch_add(1, Ordering::Relaxed);
                send_line(
                    &writer,
                    &Response::Rejected(Rejected {
                        id: 0,
                        kind: RejectKind::Malformed,
                        msg: e.to_string(),
                        trace: 0,
                    }),
                );
                return;
            }
        };
        inner.stats.received.fetch_add(1, Ordering::Relaxed);
        // The trace id is minted at admission so every response for
        // this request — including rejections — carries it.
        let trace = hls_obs::next_trace_id();

        if req.bytes > inner.cfg.max_request_bytes {
            // Refusing before reading the body is the point: an
            // oversized declaration never occupies memory. The
            // connection closes because the unread body cannot be
            // skipped within bounded work.
            inner.stats.toolarge.fetch_add(1, Ordering::Relaxed);
            inner.stats.rejected.fetch_add(1, Ordering::Relaxed);
            send_line(
                &writer,
                &Response::Rejected(Rejected {
                    id: req.id,
                    kind: RejectKind::TooLarge,
                    msg: format!(
                        "declared body of {} bytes exceeds limit {}",
                        req.bytes, inner.cfg.max_request_bytes
                    ),
                    trace,
                }),
            );
            return;
        }
        let body = match read_exact_bounded(inner, &mut reader, req.bytes) {
            Ok(b) => b,
            Err(e) => {
                inner.stats.malformed.fetch_add(1, Ordering::Relaxed);
                inner.stats.rejected.fetch_add(1, Ordering::Relaxed);
                send_line(
                    &writer,
                    &Response::Rejected(Rejected {
                        id: req.id,
                        kind: RejectKind::Malformed,
                        msg: format!("truncated body: {e}"),
                        trace,
                    }),
                );
                return;
            }
        };

        if inner.state() != RUNNING {
            inner.stats.drain_rejects.fetch_add(1, Ordering::Relaxed);
            inner.stats.rejected.fetch_add(1, Ordering::Relaxed);
            send_line(
                &writer,
                &Response::Rejected(Rejected {
                    id: req.id,
                    kind: RejectKind::Draining,
                    msg: "server is draining".into(),
                    trace,
                }),
            );
            continue;
        }

        let ms = req
            .deadline_ms
            .map_or(inner.cfg.default_deadline, Duration::from_millis)
            .min(inner.cfg.max_deadline);
        let job = Job {
            deadline: faultinject::now() + ms,
            req,
            text: String::from_utf8_lossy(&body).into_owned(),
            enqueued: Instant::now(),
            trace,
            writer: Arc::clone(&writer),
        };
        let id = job.req.id;
        // Inflate the depth *before* the send: a worker may dequeue
        // the job before this thread runs again, and its decrement
        // must never observe the counter at zero.
        inner.stats.queue_depth.fetch_add(1, Ordering::AcqRel);
        match tx.try_send(job) {
            Ok(()) => {
                inner.stats.admitted.fetch_add(1, Ordering::Relaxed);
            }
            Err(TrySendError::Full(job)) => {
                inner.stats.queue_depth.fetch_sub(1, Ordering::AcqRel);
                inner.stats.shed.fetch_add(1, Ordering::Relaxed);
                inner.stats.rejected.fetch_add(1, Ordering::Relaxed);
                send_line(
                    &job.writer,
                    &Response::Rejected(Rejected {
                        id,
                        kind: RejectKind::Overloaded,
                        msg: format!(
                            "admission queue full (capacity {})",
                            inner.cfg.queue_capacity
                        ),
                        trace,
                    }),
                );
            }
            Err(TrySendError::Disconnected(job)) => {
                inner.stats.queue_depth.fetch_sub(1, Ordering::AcqRel);
                inner.stats.drain_rejects.fetch_add(1, Ordering::Relaxed);
                inner.stats.rejected.fetch_add(1, Ordering::Relaxed);
                send_line(
                    &job.writer,
                    &Response::Rejected(Rejected {
                        id,
                        kind: RejectKind::Draining,
                        msg: "server is shutting down".into(),
                        trace,
                    }),
                );
            }
        }
    }
}

fn worker_loop(inner: &Arc<Inner>, rx: &Arc<Mutex<Receiver<Job>>>) {
    loop {
        // Holding the lock across the timed recv serializes *dequeue*,
        // not processing; the timeout doubles as the stop-flag poll.
        let job = {
            let rx = unpoisoned(rx.lock());
            rx.recv_timeout(POLL)
        };
        let job = match job {
            Ok(job) => job,
            Err(RecvTimeoutError::Timeout) => {
                if inner.state() == STOPPED {
                    return;
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => return,
        };
        inner.stats.in_flight.fetch_add(1, Ordering::AcqRel);
        inner.stats.queue_depth.fetch_sub(1, Ordering::AcqRel);
        let started = Instant::now();
        inner
            .stats
            .queue_wait_us
            .record(started.duration_since(job.enqueued).as_micros() as u64);

        let id = job.req.id;
        let trace = job.trace;
        let writer = Arc::clone(&job.writer);
        // The service span carries the trace id as its argument, so a
        // Chrome timeline row can be joined against the `trace=` token
        // the client saw on its OK/ERR line.
        let _req_span = hls_obs::obs_span!(ServeRequest, "", trace);
        // The per-request unwind boundary: a panic anywhere below —
        // parser, cache, flow — poisons this answer and nothing else.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _scope = RunScope::enter(&format!("serve:req{id}"));
            handle(inner, &job)
        }));
        let mut resp = outcome.unwrap_or_else(|payload| {
            let msg = threaded_sched::panic_message(payload.as_ref());
            hls_obs::obs_error!("serve", "request {id} (trace {trace:016x}) panicked: {msg}");
            // Post-mortem before the evidence scrolls away: the flight
            // recorder freezes the ring and counters as of the panic.
            hls_obs::flight::dump(&format!("serve request {id} panicked: {msg}"));
            Response::Rejected(Rejected {
                id,
                kind: RejectKind::Poisoned,
                msg,
                trace: 0,
            })
        });
        resp.set_trace(trace);
        match &resp {
            Response::Accepted(_) => {
                inner.stats.completed.fetch_add(1, Ordering::Relaxed);
            }
            Response::Rejected(r) => {
                let c = match r.kind {
                    RejectKind::Timeout => &inner.stats.timeouts,
                    RejectKind::Poisoned => &inner.stats.poisoned,
                    RejectKind::Malformed | RejectKind::Unsupported => &inner.stats.malformed,
                    RejectKind::TooLarge => &inner.stats.toolarge,
                    _ => &inner.stats.drain_rejects,
                };
                c.fetch_add(1, Ordering::Relaxed);
                inner.stats.rejected.fetch_add(1, Ordering::Relaxed);
            }
            Response::Stats(_) => {}
        }
        // Recorded before the answer goes out, so a client that has
        // its answer finds the request fully accounted in `STATS`.
        inner
            .stats
            .request_us
            .record(started.elapsed().as_micros() as u64);
        send_line(&writer, &resp);
        inner.stats.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

fn map_flow_error(id: u64, e: &FlowError) -> Rejected {
    let kind = match e {
        FlowError::Malformed(_) | FlowError::Lang(_) => RejectKind::Malformed,
        FlowError::NeedsPipeline => RejectKind::Unsupported,
        FlowError::Timeout => RejectKind::Timeout,
        FlowError::Poisoned(_) => RejectKind::Poisoned,
        FlowError::ResourceExhausted(_) => RejectKind::TooLarge,
        FlowError::Sched(_) | FlowError::Invalid(_) | FlowError::Lifetime(_) => {
            RejectKind::Internal
        }
    };
    Rejected {
        id,
        kind,
        msg: e.to_string(),
        trace: 0,
    }
}

/// Schedules one admitted request. Runs inside the worker's unwind
/// boundary and fault-injection scope.
fn handle(inner: &Inner, job: &Job) -> Response {
    let started = Instant::now();
    let id = job.req.id;
    let draining = inner.state() != RUNNING;

    if faultinject::now() >= job.deadline {
        return Response::Rejected(Rejected {
            id,
            kind: RejectKind::Timeout,
            msg: "deadline expired while queued".into(),
            trace: 0,
        });
    }

    let graph = match textfmt::from_text_limited(&job.text, &inner.limits) {
        Ok(g) => g,
        Err(e) => {
            return Response::Rejected(Rejected {
                id,
                kind: RejectKind::Malformed,
                msg: e.to_string(),
                trace: 0,
            })
        }
    };
    let hash = canon::graph_hash(&graph);

    // Exact-hit fast path. The cache key is the canonical graph alone
    // because the flow configuration is fixed per server instance.
    if !job.req.nocache {
        if let Some(a) = unpoisoned(inner.cache.lock()).lookup(hash, &graph) {
            return Response::Accepted(Accepted {
                id,
                rung: a.rung,
                states: Some(a.states),
                lower_bound: a.lower_bound,
                cache: CacheStatus::Hit,
                degraded: 0,
                micros: started.elapsed().as_micros() as u64,
                trace: 0,
            });
        }
    }

    // Drain mode answers whatever is already queued bound-only: an
    // honest, near-free answer beats an abandoned request.
    let budget = if draining {
        Budget::steps(0)
    } else {
        let b = Budget::deadline_at(job.deadline);
        match job.req.steps {
            Some(q) => b.and_steps(q),
            None => b,
        }
    };

    // ECO fast path: the request names a cached base it extends —
    // graft only the delta onto the cached post-flow state through
    // the incremental engine. Nothing already absorbed (spills, wire
    // delays, placement) is recomputed.
    if let (Some(base), false, false) = (job.req.base, draining, graph.has_loop_edges()) {
        let eco_base = unpoisoned(inner.cache.lock()).base_for_eco(base, &graph);
        if let Some(eco_base) = eco_base {
            match eco_flow(eco_base, &graph, &inner.cfg.flow, &budget) {
                Ok((out, next_base)) => {
                    inner.stats.eco_hits.fetch_add(1, Ordering::Relaxed);
                    let lb = out.scheduler.schedule_lower_bound();
                    let states = out.report.final_states;
                    if !job.req.nocache {
                        unpoisoned(inner.cache.lock()).insert(
                            hash,
                            graph,
                            next_base,
                            CachedAnswer {
                                rung: "eco".into(),
                                states,
                                lower_bound: lb,
                            },
                        );
                    }
                    return Response::Accepted(Accepted {
                        id,
                        rung: "eco".into(),
                        states: Some(states),
                        lower_bound: lb,
                        cache: CacheStatus::Eco,
                        degraded: 0,
                        micros: started.elapsed().as_micros() as u64,
                        trace: 0,
                    });
                }
                Err(FlowError::Timeout) => {
                    return Response::Rejected(map_flow_error(id, &FlowError::Timeout))
                }
                // Any other graft failure falls through to the cold
                // path: the request is still answerable from scratch.
                Err(_) => {}
            }
        }
    }

    let cfg = FlowConfig {
        budget: inner.cfg.flow.budget.tighter(&budget),
        ..inner.cfg.flow.clone()
    };
    match run_flow_degraded(&graph, &cfg) {
        Ok(out) => {
            let rung = out.rung.name().to_string();
            let states = out.outcome.as_ref().map(|o| o.report.final_states);
            if out.outcome.is_none() {
                inner.stats.bound_only.fetch_add(1, Ordering::Relaxed);
            }
            if let (Some(o), false, false) = (&out.outcome, job.req.nocache, draining) {
                let eco_base = EcoBase::of_outcome(graph.len(), o);
                unpoisoned(inner.cache.lock()).insert(
                    hash,
                    graph,
                    eco_base,
                    CachedAnswer {
                        rung: rung.clone(),
                        states: o.report.final_states,
                        lower_bound: out.lower_bound,
                    },
                );
            }
            Response::Accepted(Accepted {
                id,
                rung,
                states,
                lower_bound: out.lower_bound,
                cache: CacheStatus::Miss,
                degraded: out.degraded.len(),
                micros: started.elapsed().as_micros() as u64,
                trace: 0,
            })
        }
        Err(e) => Response::Rejected(map_flow_error(id, &e)),
    }
}
