//! The server shell: shard router, in-process client, and the TCP /
//! Unix-socket transports.
//!
//! A [`Server`] owns N shards and spawns no thread per shard. The router
//! is the only piece the transports touch: it sends `Open` requests
//! round-robin across shards, routes session requests by the shard byte
//! packed into the [`SessionId`], and runs each one to completion under
//! that shard's lock on the calling thread — the connection thread that
//! read a request also computes and writes its reply. `Stats` is
//! answered entirely from each shard's [`Published`] snapshot — a stats
//! poll never takes a shard's lock.
//!
//! The [`Client`] is in-process but honest: every call round-trips
//! through the same encode → decode → dispatch → encode → decode byte
//! path a socket client exercises, so the protocol tests and the bench
//! measure the real wire cost minus only the kernel.
//!
//! [`Published`]: pythia_core::sync::Published
//! [`SessionId`]: crate::session::SessionId

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::BytesMut;
use pythia_core::error::{Error, Result};
use pythia_core::predict::PredictorConfig;
use pythia_core::resilience::{BreakerConfig, FaultPlan, WireFault, WireFaultInjector};

use crate::proto::{
    decode_request, decode_response, encode_request, encode_request_into, encode_response,
    encode_response_into, next_frame, Request, Response,
};
use crate::session::SessionId;
use crate::shard::{parse_journal_file, ShardHandle, ShardStats};
use crate::tenant::Tenants;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Shards: session slabs, each behind its own lock. No thread is
    /// spawned per shard; a request runs on the thread that brought it.
    pub workers: usize,
    /// Session-slab admission limit per shard.
    pub max_sessions_per_shard: usize,
    /// Live-session cap per tenant across all shards (`usize::MAX`
    /// disables it). Overload protection: one greedy tenant cannot fill
    /// every slab.
    pub max_sessions_per_tenant: usize,
    /// Bound on the callers waiting for one shard's lock while another
    /// runs; the next is answered [`Response::Busy`] instead of joining a
    /// line without limit.
    pub queue_depth: usize,
    /// Retry-after hint carried by [`Response::Busy`], in milliseconds.
    pub retry_after_ms: u32,
    /// Evict sessions idle longer than this (`None`: never). Evicted
    /// durable sessions stay resumable from their journals.
    pub session_ttl: Option<Duration>,
    /// How often the sweeper visits the shards (only meaningful with
    /// `session_ttl` set).
    pub sweep_interval: Duration,
    /// Directory for durable-session journals; `None` refuses durable
    /// opens and resumes.
    pub journal_dir: Option<PathBuf>,
    /// fsync session journals on every append (see
    /// [`pythia_core::persist::PersistConfig::fsync`] for the trade-off;
    /// the default off still survives process death).
    pub fsync_journals: bool,
    /// Drop an accepted connection after it has been idle this long —
    /// the slow-loris bound: a stalled client costs a thread for this
    /// long, not forever.
    pub conn_idle_timeout: Duration,
    /// Fault injection (wire faults for the chaos harness, IO faults for
    /// session journals). `None` consults `PYTHIA_CHAOS`;
    /// `Some(FaultPlan::none())` pins the server fault-free.
    pub faults: Option<FaultPlan>,
    /// Predictor settings applied to every session.
    pub predictor: PredictorConfig,
    /// Per-(shard, tenant) admission breaker settings.
    pub breaker: BreakerConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            max_sessions_per_shard: 1 << 16,
            max_sessions_per_tenant: usize::MAX,
            queue_depth: 1024,
            retry_after_ms: 10,
            session_ttl: None,
            sweep_interval: Duration::from_secs(1),
            journal_dir: None,
            fsync_journals: false,
            conn_idle_timeout: Duration::from_secs(60),
            faults: None,
            predictor: PredictorConfig::default(),
            breaker: BreakerConfig::default(),
        }
    }
}

/// Server lifecycle, shared by the router, transports, and sweeper.
#[derive(Debug)]
pub(crate) struct Lifecycle(AtomicU8);

const LIFE_RUNNING: u8 = 0;
const LIFE_DRAINING: u8 = 1;
const LIFE_STOPPED: u8 = 2;

impl Lifecycle {
    fn new() -> Self {
        Lifecycle(AtomicU8::new(LIFE_RUNNING))
    }
    fn advance_to(&self, state: u8) {
        // Lifecycle only moves forward; a racing drain/shutdown pair
        // must not resurrect an earlier state.
        self.0.fetch_max(state, Ordering::SeqCst);
    }
    fn get(&self) -> u8 {
        self.0.load(Ordering::SeqCst)
    }
    fn running(&self) -> bool {
        self.get() == LIFE_RUNNING
    }
    fn stopped(&self) -> bool {
        self.get() == LIFE_STOPPED
    }
}

/// Routes requests to shards. Shared by every transport.
pub struct Router {
    shards: Vec<ShardHandle>,
    tenants: Arc<Tenants>,
    next_shard: AtomicUsize,
    lifecycle: Arc<Lifecycle>,
    /// Old-id → new-id map of resurrected sessions: makes `Resume`
    /// idempotent (a retried resume returns the already-live session
    /// instead of failing on the consumed journal file) and serializes
    /// concurrent resumes of the same id.
    resumed: parking_lot::Mutex<HashMap<u64, SessionId>>,
}

impl Router {
    /// Serves one request on the calling thread and returns its response.
    pub fn dispatch(&self, req: Request) -> Response {
        match req {
            // Stats takes no shard's lock: every shard's latest snapshot
            // is read lock-free from its epoch-published slot.
            Request::Stats => Response::Stats {
                shards: self.shards.iter().map(|s| s.snapshot()).collect(),
            },
            Request::Open { .. } => {
                if !self.lifecycle.running() {
                    return Response::Draining;
                }
                let shard = self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len();
                self.shards[shard].call(req)
            }
            Request::Resume { session } => {
                if !self.lifecycle.running() {
                    return Response::Draining;
                }
                // The lock is held across the shard call: resumes are rare
                // (restart recovery) and racing resumes of one id would
                // otherwise both replay the same journal. This is the one
                // place two locks nest, always `resumed` then the shard.
                let mut resumed = self.resumed.lock();
                if let Some(&id) = resumed.get(&session.0) {
                    return Response::Session { id };
                }
                let shard = self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len();
                let resp = self.shards[shard].call(Request::Resume { session });
                if let Response::Session { id } = resp {
                    resumed.insert(session.0, id);
                }
                resp
            }
            Request::Observe { session, .. }
            | Request::Predict { session, .. }
            | Request::ObservePredict { session, .. }
            | Request::Close { session } => {
                let shard = session.shard();
                if shard >= self.shards.len() {
                    return Response::Error {
                        message: format!("session routes to nonexistent shard {shard}"),
                    };
                }
                self.shards[shard].call(req)
            }
        }
    }

    /// The tenant directory this server was built with.
    pub fn tenants(&self) -> &Tenants {
        &self.tenants
    }

    /// Aggregate stats across all shards.
    pub fn stats(&self) -> ShardStats {
        self.shards
            .iter()
            .fold(ShardStats::default(), |acc, s| acc.merge(&s.snapshot()))
    }
}

/// What [`Server::recover`] found in the journal directory.
#[derive(Debug, Default)]
pub struct RecoverReport {
    /// Sessions resurrected: `(old id, new id)`. Clients present their
    /// old id via [`Request::Resume`] and are answered with the new one.
    pub resumed: Vec<(SessionId, SessionId)>,
    /// Journals that could not be resurrected, with the refusal reason.
    /// The files are renamed to `*.sj.bad` so a retry loop cannot spin
    /// on them.
    pub failed: Vec<(PathBuf, String)>,
}

/// A running prediction server.
pub struct Server {
    router: Arc<Router>,
    lifecycle: Arc<Lifecycle>,
    listeners: Vec<JoinHandle<()>>,
    sweeper: Option<JoinHandle<()>>,
    unix_paths: Vec<PathBuf>,
    faults: FaultPlan,
    conn_idle_timeout: Duration,
}

impl Server {
    /// Starts a server of `config.workers` shards over the given tenants.
    pub fn start(tenants: Tenants, config: ServeConfig) -> Result<Server> {
        if config.workers == 0 || config.workers > SessionId::MAX_SHARDS {
            return Err(Error::InvalidConfig(format!(
                "workers must be in 1..={}, got {}",
                SessionId::MAX_SHARDS,
                config.workers
            )));
        }
        if tenants.is_empty() {
            return Err(Error::InvalidConfig("no tenants registered".into()));
        }
        let faults = config
            .faults
            .clone()
            .or_else(FaultPlan::from_env)
            .unwrap_or_default();
        if let Some(dir) = &config.journal_dir {
            std::fs::create_dir_all(dir).map_err(Error::Io)?;
        }
        let tenants = Arc::new(tenants);
        let tenant_live: Arc<Vec<AtomicU64>> =
            Arc::new((0..tenants.len()).map(|_| AtomicU64::new(0)).collect());
        let lifecycle = Arc::new(Lifecycle::new());
        // One configuration for every shard, its fault plan resolved.
        let config = Arc::new(ServeConfig {
            faults: Some(faults.clone()),
            ..config
        });
        let shards = (0..config.workers)
            .map(|index| ShardHandle::new(index, &config, &tenants, &tenant_live))
            .collect();
        let router = Arc::new(Router {
            shards,
            tenants,
            next_shard: AtomicUsize::new(0),
            lifecycle: Arc::clone(&lifecycle),
            resumed: parking_lot::Mutex::new(HashMap::new()),
        });
        let sweeper = match config.session_ttl {
            Some(_) => {
                let router = Arc::clone(&router);
                let lifecycle = Arc::clone(&lifecycle);
                let interval = config.sweep_interval.max(Duration::from_millis(10));
                Some(
                    std::thread::Builder::new()
                        .name("pythia-serve-sweep".into())
                        .spawn(move || sweep_loop(lifecycle, router, interval))
                        .map_err(Error::Io)?,
                )
            }
            None => None,
        };
        Ok(Server {
            router,
            lifecycle,
            listeners: Vec::new(),
            sweeper,
            unix_paths: Vec::new(),
            faults,
            conn_idle_timeout: config.conn_idle_timeout,
        })
    }

    /// Restarts a server over an existing journal directory, resurrecting
    /// every session a previous incarnation left behind. Each journal is
    /// replayed through a fresh predictor (byte-identical state, by
    /// Sequitur determinism) and re-registered under a fresh id; clients
    /// reclaim their sessions with [`Request::Resume`] on the old id.
    ///
    /// `config.journal_dir` must be set. Unreadable or foreign-tenant
    /// journals are renamed to `*.sj.bad` and reported, never retried.
    pub fn recover(tenants: Tenants, config: ServeConfig) -> Result<(Server, RecoverReport)> {
        let Some(dir) = config.journal_dir.clone() else {
            return Err(Error::InvalidConfig(
                "recover needs a journal directory".into(),
            ));
        };
        let server = Server::start(tenants, config)?;
        let mut report = RecoverReport::default();
        let mut files: Vec<PathBuf> = match std::fs::read_dir(&dir) {
            Ok(entries) => entries
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| parse_journal_file(p).is_some())
                .collect(),
            Err(e) => return Err(Error::Io(e)),
        };
        // Deterministic resurrection order (directory order is not).
        files.sort();
        for path in files {
            let old = parse_journal_file(&path).expect("filtered above");
            match server.router.dispatch(Request::Resume { session: old }) {
                Response::Session { id } => report.resumed.push((old, id)),
                Response::Error { message } => {
                    let bad = path.with_extension("sj.bad");
                    let _ = std::fs::rename(&path, &bad);
                    report.failed.push((path, message));
                }
                other => {
                    report.failed.push((path, format!("unexpected {other:?}")));
                }
            }
        }
        Ok((server, report))
    }

    /// The router, for in-process clients.
    pub fn router(&self) -> Arc<Router> {
        Arc::clone(&self.router)
    }

    /// An in-process client bound to this server.
    pub fn client(&self) -> Client {
        Client {
            router: self.router(),
        }
    }

    fn conn_options(&self) -> ConnOptions {
        ConnOptions {
            idle_timeout: self.conn_idle_timeout,
            faults: self.faults.clone(),
        }
    }

    /// Binds a TCP listener and serves connections until shutdown.
    /// Returns the bound address (bind to port 0 to let the OS pick).
    pub fn listen_tcp(&mut self, addr: &str) -> Result<SocketAddr> {
        let listener = TcpListener::bind(addr).map_err(Error::Io)?;
        let local = listener.local_addr().map_err(Error::Io)?;
        listener.set_nonblocking(true).map_err(Error::Io)?;
        let router = self.router();
        let lifecycle = Arc::clone(&self.lifecycle);
        let options = self.conn_options();
        let join = std::thread::Builder::new()
            .name("pythia-serve-tcp".into())
            .spawn(move || accept_loop(lifecycle, router, AcceptSource::Tcp(listener), options))
            .map_err(Error::Io)?;
        self.listeners.push(join);
        Ok(local)
    }

    /// Binds a Unix-domain listener at `path` and serves until shutdown.
    /// An existing socket file at `path` is replaced.
    pub fn listen_unix(&mut self, path: &Path) -> Result<()> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path).map_err(Error::Io)?;
        listener.set_nonblocking(true).map_err(Error::Io)?;
        let router = self.router();
        let lifecycle = Arc::clone(&self.lifecycle);
        let options = self.conn_options();
        let join = std::thread::Builder::new()
            .name("pythia-serve-unix".into())
            .spawn(move || accept_loop(lifecycle, router, AcceptSource::Unix(listener), options))
            .map_err(Error::Io)?;
        self.listeners.push(join);
        self.unix_paths.push(path.to_path_buf());
        Ok(())
    }

    /// Begins a graceful drain: new opens and resumes are answered
    /// [`Response::Draining`], in-flight sessions keep serving, and every
    /// live session journal is flushed to disk. Returns once every shard
    /// has flushed. Idempotent; `shutdown` calls it first.
    pub fn drain(&self) {
        self.lifecycle.advance_to(LIFE_DRAINING);
        for shard in &self.router.shards {
            shard.flush_journals();
        }
    }

    /// Drains (flushing journals), stops accepting, and joins every
    /// thread. Durable sessions remain resumable by a future
    /// [`Server::recover`].
    pub fn shutdown(&mut self) {
        self.drain();
        self.lifecycle.advance_to(LIFE_STOPPED);
        for listener in self.listeners.drain(..) {
            let _ = listener.join();
        }
        if let Some(sweeper) = self.sweeper.take() {
            let _ = sweeper.join();
        }
        for path in self.unix_paths.drain(..) {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// How a client backs off when the server answers [`Response::Busy`].
///
/// Backoff is capped exponential with deterministic jitter (splitmix64
/// over `seed` and the attempt number — reproducible under test, still
/// decorrelated across clients seeded differently). The server's
/// retry-after hint acts as a floor for each delay.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (the first call counts as one); 1 = no retry.
    pub attempts: u32,
    /// Delay before the first retry.
    pub base: Duration,
    /// Upper bound on any single delay.
    pub cap: Duration,
    /// Jitter seed: clients should seed differently (e.g. by rank) so a
    /// Busy burst does not resynchronize into a retry thundering herd.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 8,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(200),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The delay before retry number `retry` (0-based), honoring the
    /// server's `retry_after_ms` hint as a floor.
    fn delay(&self, retry: u32, retry_after_ms: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << retry.min(16))
            .min(self.cap);
        let exp = exp.max(Duration::from_millis(retry_after_ms as u64));
        // Deterministic jitter in [0, exp/2): splitmix64 of (seed, retry).
        let mut z = self
            .seed
            .wrapping_add(retry as u64)
            .wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^= z >> 31;
        let half = (exp.as_micros() as u64 / 2).max(1);
        exp + Duration::from_micros(z % half)
    }
}

/// Drives `call` with [`RetryPolicy`] backoff while the server answers
/// Busy. Shared by the in-process and socket clients.
fn call_with_backoff(
    policy: &RetryPolicy,
    mut call: impl FnMut() -> Result<Response>,
) -> Result<Response> {
    let mut retry = 0;
    loop {
        let resp = call()?;
        let Response::Busy { retry_after_ms } = resp else {
            return Ok(resp);
        };
        if retry + 1 >= policy.attempts.max(1) {
            // Out of attempts: surface the Busy so the caller can shed
            // load its own way.
            return Ok(resp);
        }
        std::thread::sleep(policy.delay(retry, retry_after_ms));
        retry += 1;
    }
}

/// In-process client: full byte-path parity with a socket client.
#[derive(Clone)]
pub struct Client {
    router: Arc<Router>,
}

impl Client {
    /// Issues one request, round-tripping it through the framed wire
    /// encoding both ways.
    pub fn call(&self, req: &Request) -> Result<Response> {
        let decoded = decode_request(unframe(&encode_request(req))?)?;
        let resp = self.router.dispatch(decoded);
        decode_response(unframe(&encode_response(&resp))?)
    }

    /// Like [`Client::call`], but honors [`Response::Busy`] with capped
    /// exponential backoff before giving up.
    pub fn call_with_retry(&self, req: &Request, policy: &RetryPolicy) -> Result<Response> {
        call_with_backoff(policy, || self.call(req))
    }
}

/// A socket client speaking the framed protocol over TCP or Unix
/// streams — also the reference implementation for external clients.
pub struct SocketClient<S: Read + Write> {
    stream: S,
    /// The request frame being written; reused across calls.
    out: BytesMut,
    inbox: FrameBuf,
}

impl SocketClient<TcpStream> {
    /// Connects over TCP.
    pub fn connect_tcp(addr: SocketAddr) -> Result<Self> {
        let stream = TcpStream::connect(addr).map_err(Error::Io)?;
        stream.set_nodelay(true).map_err(Error::Io)?;
        Ok(SocketClient::over(stream))
    }
}

impl SocketClient<UnixStream> {
    /// Connects over a Unix-domain socket.
    pub fn connect_unix(path: &Path) -> Result<Self> {
        Ok(SocketClient::over(
            UnixStream::connect(path).map_err(Error::Io)?,
        ))
    }
}

impl<S: Read + Write> SocketClient<S> {
    fn over(stream: S) -> Self {
        SocketClient {
            stream,
            out: BytesMut::new(),
            inbox: FrameBuf::default(),
        }
    }

    /// Issues one request and blocks for its response frame.
    pub fn call(&mut self, req: &Request) -> Result<Response> {
        self.out.clear();
        encode_request_into(req, &mut self.out);
        self.stream.write_all(&self.out).map_err(Error::Io)?;
        loop {
            if let Some(body) = self.inbox.next_frame()? {
                return decode_response(body);
            }
            if self.inbox.fill(&mut self.stream).map_err(Error::Io)? == 0 {
                return Err(Error::Corrupt("server closed mid-response".into()));
            }
        }
    }

    /// Like [`SocketClient::call`], but honors [`Response::Busy`] with
    /// capped exponential backoff before giving up.
    pub fn call_with_retry(&mut self, req: &Request, policy: &RetryPolicy) -> Result<Response> {
        call_with_backoff(policy, || self.call(req))
    }
}

/// Bytes read off a stream and not yet parsed, `buf[start..end]`: frames
/// are borrowed out of it in place and a cursor moves past them, so a
/// frame is neither copied out nor the rest shifted down behind it.
#[derive(Default)]
struct FrameBuf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameBuf {
    /// The next whole frame's body, if one has arrived.
    fn next_frame(&mut self) -> Result<Option<&[u8]>> {
        let mut unread = &self.buf[self.start..self.end];
        let body = next_frame(&mut unread)?;
        self.start = self.end - unread.len();
        Ok(body)
    }

    /// Reads once from `stream` behind the unparsed bytes; 0 means the
    /// peer closed.
    fn fill(&mut self, stream: &mut impl Read) -> std::io::Result<usize> {
        if self.start == self.end || self.end == self.buf.len() {
            // Make room: what is unparsed — nothing, between requests; a
            // partial frame otherwise — goes to the front, and a frame
            // larger than the buffer (`MAX_FRAME` at most) grows it.
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            if self.end == self.buf.len() {
                self.buf.resize((2 * self.end).max(4096), 0);
            }
        }
        let n = stream.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }
}

/// Strips the length prefix off a single complete frame.
fn unframe(mut bytes: &[u8]) -> Result<&[u8]> {
    next_frame(&mut bytes)?.ok_or_else(|| Error::Corrupt("incomplete frame".into()))
}

enum AcceptSource {
    Tcp(TcpListener),
    Unix(UnixListener),
}

/// Per-connection settings handed from the server to its transports.
#[derive(Clone)]
struct ConnOptions {
    idle_timeout: Duration,
    faults: FaultPlan,
}

/// The periodic idle-session eviction tick. It never waits for a shard:
/// one that is busy is skipped and swept next tick.
fn sweep_loop(lifecycle: Arc<Lifecycle>, router: Arc<Router>, interval: Duration) {
    let tick = interval.min(Duration::from_millis(50));
    let mut since_sweep = Duration::ZERO;
    while !lifecycle.stopped() {
        std::thread::sleep(tick);
        since_sweep += tick;
        if since_sweep >= interval {
            since_sweep = Duration::ZERO;
            let now = std::time::Instant::now();
            for shard in &router.shards {
                shard.sweep(now);
            }
        }
    }
}

fn accept_loop(
    lifecycle: Arc<Lifecycle>,
    router: Arc<Router>,
    source: AcceptSource,
    options: ConnOptions,
) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    // Accept only while running: a draining server finishes existing
    // connections but takes no new ones.
    while lifecycle.running() {
        let accepted: Option<Box<dyn StreamLike>> = match &source {
            AcceptSource::Tcp(l) => match l.accept() {
                Ok((s, _)) => Some(Box::new(s)),
                Err(e) if e.kind() == ErrorKind::WouldBlock => None,
                Err(_) => None,
            },
            AcceptSource::Unix(l) => match l.accept() {
                Ok((s, _)) => Some(Box::new(s)),
                Err(e) if e.kind() == ErrorKind::WouldBlock => None,
                Err(_) => None,
            },
        };
        match accepted {
            Some(stream) => {
                // The chaos harness wraps the accepted stream, not the
                // listener: each connection gets its own deterministic
                // wire-fault schedule.
                let stream: Box<dyn StreamLike> = if options.faults.has_wire_faults() {
                    Box::new(FaultStream::new(stream, options.faults.clone()))
                } else {
                    stream
                };
                let router = Arc::clone(&router);
                let lifecycle = Arc::clone(&lifecycle);
                let options = options.clone();
                if let Ok(join) = std::thread::Builder::new()
                    .name("pythia-serve-conn".into())
                    .spawn(move || connection_loop(lifecycle, router, stream, options))
                {
                    connections.push(join);
                }
            }
            None => std::thread::sleep(Duration::from_millis(2)),
        }
        connections.retain(|j| !j.is_finished());
    }
    for join in connections {
        let _ = join.join();
    }
}

/// The subset of stream behavior the connection loop needs, so TCP and
/// Unix connections share one handler.
trait StreamLike: Read + Write + Send {
    fn set_read_timeout_ms(&self, ms: u64) -> std::io::Result<()>;
    fn set_write_timeout_ms(&self, ms: u64) -> std::io::Result<()>;
}

impl StreamLike for TcpStream {
    fn set_read_timeout_ms(&self, ms: u64) -> std::io::Result<()> {
        self.set_read_timeout(Some(Duration::from_millis(ms)))
    }
    fn set_write_timeout_ms(&self, ms: u64) -> std::io::Result<()> {
        self.set_write_timeout(Some(Duration::from_millis(ms)))
    }
}

impl StreamLike for UnixStream {
    fn set_read_timeout_ms(&self, ms: u64) -> std::io::Result<()> {
        self.set_read_timeout(Some(Duration::from_millis(ms)))
    }
    fn set_write_timeout_ms(&self, ms: u64) -> std::io::Result<()> {
        self.set_write_timeout(Some(Duration::from_millis(ms)))
    }
}

/// A [`StreamLike`] that injects wire faults on the write (response)
/// path, driven by a per-connection [`WireFaultInjector`]. Each `write`
/// call carries one whole response frame (the connection loop writes
/// with a single `write_all` per response), so faulting per write call
/// faults per frame.
struct FaultStream<S: StreamLike> {
    inner: S,
    injector: WireFaultInjector,
    /// Set once a truncate/disconnect fault fired: the connection is
    /// dead, every further IO fails.
    dead: bool,
}

impl<S: StreamLike> FaultStream<S> {
    fn new(inner: S, plan: FaultPlan) -> Self {
        FaultStream {
            inner,
            injector: WireFaultInjector::new(plan),
            dead: false,
        }
    }

    fn killed(&mut self) -> std::io::Error {
        self.dead = true;
        std::io::Error::new(ErrorKind::BrokenPipe, "wire fault: connection dropped")
    }
}

impl<S: StreamLike> Read for FaultStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.dead {
            return Ok(0);
        }
        self.inner.read(buf)
    }
}

impl<S: StreamLike> Write for FaultStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.dead {
            return Err(self.killed());
        }
        match self.injector.next_frame() {
            WireFault::None => self.inner.write(buf),
            WireFault::Delay(d) => {
                std::thread::sleep(d);
                self.inner.write(buf)
            }
            WireFault::Truncate => {
                // Half the frame goes out, then the connection dies: the
                // peer sees a frame that never completes.
                let _ = self.inner.write(&buf[..buf.len() / 2]);
                let _ = self.inner.flush();
                Err(self.killed())
            }
            WireFault::CorruptLenPrefix => {
                let mut mangled = buf.to_vec();
                for b in mangled.iter_mut().take(4) {
                    *b ^= 0x7F;
                }
                self.inner.write_all(&mangled)?;
                Ok(buf.len())
            }
            WireFault::Disconnect => Err(self.killed()),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

impl<S: StreamLike> StreamLike for FaultStream<S> {
    fn set_read_timeout_ms(&self, ms: u64) -> std::io::Result<()> {
        self.inner.set_read_timeout_ms(ms)
    }
    fn set_write_timeout_ms(&self, ms: u64) -> std::io::Result<()> {
        self.inner.set_write_timeout_ms(ms)
    }
}

impl StreamLike for Box<dyn StreamLike> {
    fn set_read_timeout_ms(&self, ms: u64) -> std::io::Result<()> {
        (**self).set_read_timeout_ms(ms)
    }
    fn set_write_timeout_ms(&self, ms: u64) -> std::io::Result<()> {
        (**self).set_write_timeout_ms(ms)
    }
}

/// Milliseconds per connection poll tick (the read-timeout granularity).
const CONN_TICK_MS: u64 = 50;

fn connection_loop(
    lifecycle: Arc<Lifecycle>,
    router: Arc<Router>,
    mut stream: Box<dyn StreamLike>,
    options: ConnOptions,
) {
    // A short read timeout keeps the thread responsive to shutdown
    // without busy-waiting on idle connections; the write timeout bounds
    // a peer that stops reading mid-response (slow-loris on the write
    // side would otherwise pin this thread in write_all forever).
    if stream.set_read_timeout_ms(CONN_TICK_MS).is_err() {
        return;
    }
    let _ = stream.set_write_timeout_ms(options.idle_timeout.as_millis().max(1) as u64);
    // The slow-loris bound: a connection that goes idle_timeout without
    // completing a single frame is dead weight and closes. Only a
    // *complete* frame resets the clock — dribbling one byte per tick
    // (the classic slow-loris shape) does not count as progress.
    let mut last_frame = std::time::Instant::now();
    let mut inbox = FrameBuf::default();
    let mut out = BytesMut::new();
    while !lifecycle.stopped() {
        loop {
            let body = match inbox.next_frame() {
                Ok(Some(body)) => body,
                Ok(None) => break,
                // Oversized or mangled length prefix: the stream can
                // never resynchronize, so drop the connection.
                Err(_) => return,
            };
            last_frame = std::time::Instant::now();
            let resp = match decode_request(body) {
                Ok(req) => router.dispatch(req),
                Err(e) => Response::Error {
                    message: format!("bad request: {e}"),
                },
            };
            out.clear();
            encode_response_into(&resp, &mut out);
            if stream.write_all(&out).is_err() {
                return;
            }
        }
        match inbox.fill(&mut stream) {
            Ok(0) => return, // peer closed
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
        if last_frame.elapsed() >= options.idle_timeout {
            return;
        }
    }
}

#[cfg(test)]
mod overload_tests {
    use super::*;
    use crate::tenant::Tenants;
    use crate::tests::{assert_bit_identical, open, predict, trace_of};
    use pythia_core::event::EventId;
    use pythia_core::predict::Predictor;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    const QUEUE_DEPTH: usize = 2;

    fn server(config: ServeConfig) -> Server {
        let tenants = Tenants::from_traces([("t".to_string(), trace_of(&[1, 2, 3], 16))]).unwrap();
        Server::start(
            tenants,
            ServeConfig {
                queue_depth: QUEUE_DEPTH,
                retry_after_ms: 7,
                ..config
            },
        )
        .unwrap()
    }

    fn observe(session: SessionId, events: usize) -> Request {
        Request::Observe {
            session,
            events: vec![EventId(1); events],
        }
    }

    /// Holds a one-shard server's shard from the calling thread, parks
    /// exactly `QUEUE_DEPTH` one-event observes behind it and runs
    /// `while_full`; then releases the shard and checks that every parked
    /// caller was served and nothing else was applied.
    fn with_full_shard(while_full: impl FnOnce(&Arc<Router>, SessionId)) {
        let server = server(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let router = server.router();
        let session = open(&server.client(), "t");
        let shard = &router.shards[0];
        let held = shard.hold();
        let start = Barrier::new(QUEUE_DEPTH + 1);
        std::thread::scope(|s| {
            let parked: Vec<_> = (0..QUEUE_DEPTH)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        router.dispatch(observe(session, 1))
                    })
                })
                .collect();
            start.wait();
            // The waiter count is the one observable that says a caller
            // is parked at the shard's lock.
            while shard.waiters() < QUEUE_DEPTH {
                std::thread::yield_now();
            }
            while_full(&router, session);
            drop(held);
            for caller in parked {
                assert!(matches!(caller.join().unwrap(), Response::Advice { .. }));
            }
        });
        // Busy means the request was not applied.
        assert_eq!(router.stats().events, QUEUE_DEPTH as u64);
    }

    #[test]
    fn full_queue_answers_busy_with_retry_hint() {
        with_full_shard(|router, session| {
            // One runs, QUEUE_DEPTH wait: the next is refused, counted,
            // and told when to come back.
            match router.dispatch(observe(session, 5)) {
                Response::Busy { retry_after_ms } => assert_eq!(retry_after_ms, 7),
                other => panic!("full shard returned {other:?}"),
            }
            assert_eq!(router.stats().busy_rejects, 1);
            // Stats still answers: it takes no shard's lock.
            assert!(matches!(
                router.dispatch(Request::Stats),
                Response::Stats { .. }
            ));
        });
    }

    #[test]
    fn busy_exhausts_retry_attempts_then_surfaces() {
        with_full_shard(|router, session| {
            let client = Client {
                router: Arc::clone(router),
            };
            let policy = RetryPolicy {
                attempts: 3,
                base: Duration::from_micros(100),
                cap: Duration::from_micros(200),
                seed: 1,
            };
            // Every attempt finds the line full; after `attempts` tries
            // the Busy is surfaced instead of looping forever.
            match client
                .call_with_retry(&observe(session, 5), &policy)
                .unwrap()
            {
                Response::Busy { .. } => {}
                other => panic!("exhausted retries returned {other:?}"),
            }
            assert_eq!(router.stats().busy_rejects, 3);
        });
    }

    /// A panic inside a shard is that shard's death and nobody else's:
    /// the caller that hit it and every later one get an error, the other
    /// shard serves bit-identically, `Stats` still answers.
    #[test]
    fn panicking_shard_goes_down_alone() {
        let server = server(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let router = server.router();
        let client = server.client();
        let (doomed, healthy) = (open(&client, "t"), open(&client, "t"));
        assert_eq!((doomed.shard(), healthy.shard()), (0, 1));

        let message = |resp| match resp {
            Response::Error { message } => message,
            other => panic!("expected an error, got {other:?}"),
        };
        let hit = router.shards[0].run(|_| panic!("injected shard panic"));
        assert_eq!(message(hit.unwrap_err()), "shard 0 dropped the request");
        for req in [observe(doomed, 1), Request::Close { session: doomed }] {
            assert_eq!(message(router.dispatch(req)), "shard 0 is down");
        }

        let reference = trace_of(&[1, 2, 3], 16);
        let mut local = Predictor::from_thread_trace(
            Arc::clone(reference.thread(0).unwrap()),
            PredictorConfig::default(),
        );
        for event in [1, 2, 3, 1] {
            let events = vec![EventId(event)];
            local.observe_batch(&events);
            client
                .call(&Request::Observe {
                    session: healthy,
                    events,
                })
                .unwrap();
            assert_bit_identical(&predict(&client, healthy, 1).0, &local.predict(1));
        }
        match router.dispatch(Request::Stats) {
            Response::Stats { shards } => assert_eq!(shards[1].events, 4),
            other => panic!("stats returned {other:?}"),
        }
    }

    /// The sweeper never waits behind a busy shard: it skips it and
    /// evicts on a later tick.
    #[test]
    fn sweep_skips_a_busy_shard() {
        let server = server(ServeConfig {
            workers: 1,
            // Everything is idle past a zero TTL; the server's own sweeper
            // stays out of the way for an hour.
            session_ttl: Some(Duration::ZERO),
            sweep_interval: Duration::from_secs(3600),
            ..ServeConfig::default()
        });
        let router = server.router();
        open(&server.client(), "t");
        let held = router.shards[0].hold();
        router.shards[0].sweep(std::time::Instant::now());
        drop(held);
        assert_eq!(router.stats().evicted_sessions, 0);
        router.shards[0].sweep(std::time::Instant::now());
        assert_eq!(router.stats().evicted_sessions, 1);
    }

    /// `drain` returns only after it has had every shard's lock, so only
    /// after every live journal was synced: it waits out a request that
    /// holds one.
    #[test]
    fn drain_waits_for_a_busy_shard() {
        let server = server(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let router = server.router();
        let (entered, release) = (Barrier::new(2), Barrier::new(2));
        let drained = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let _ = router.shards[1].run(|_| {
                    entered.wait();
                    release.wait();
                });
            });
            entered.wait();
            s.spawn(|| {
                server.drain();
                drained.store(true, Ordering::SeqCst);
            });
            // Drain has begun...
            while server.lifecycle.running() {
                std::thread::yield_now();
            }
            // ...and cannot have finished while shard 1 is occupied.
            assert!(!drained.load(Ordering::SeqCst));
            release.wait();
        });
        assert!(drained.load(Ordering::SeqCst));
    }

    #[test]
    fn backoff_retries_until_the_server_recovers() {
        let mut calls = 0;
        let resp = call_with_backoff(
            &RetryPolicy {
                attempts: 8,
                base: Duration::from_micros(50),
                cap: Duration::from_micros(100),
                seed: 42,
            },
            || {
                calls += 1;
                Ok(if calls < 4 {
                    Response::Busy { retry_after_ms: 0 }
                } else {
                    Response::Closed
                })
            },
        )
        .unwrap();
        assert!(matches!(resp, Response::Closed));
        assert_eq!(calls, 4);
    }

    #[test]
    fn retry_delay_honors_hint_cap_and_determinism() {
        let policy = RetryPolicy {
            attempts: 8,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(200),
            seed: 3,
        };
        // The server hint floors the exponential term.
        let hinted = policy.delay(0, 500);
        assert!(hinted >= Duration::from_millis(500));
        // Jitter stays within half the exponential term.
        for retry in 0..12 {
            let d = policy.delay(retry, 0);
            let exp = policy
                .base
                .saturating_mul(1u32 << retry.min(16))
                .min(policy.cap);
            assert!(d >= exp, "retry {retry}: {d:?} below exponential {exp:?}");
            assert!(d < exp * 3 / 2 + Duration::from_micros(1));
            // Deterministic: same seed, same delay.
            assert_eq!(d, policy.delay(retry, 0));
        }
        // Different seeds decorrelate (not a hard guarantee per retry,
        // but identical whole schedules would mean the jitter is dead).
        let other = RetryPolicy {
            seed: 4,
            ..policy.clone()
        };
        assert!((0..12).any(|r| policy.delay(r, 0) != other.delay(r, 0)));
    }
}
