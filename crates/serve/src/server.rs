//! The resident exploration server: a hardened worker fleet.
//!
//! One [`Server`] owns N worker [`EngineSession`]s — each with its own
//! in-memory result cache and FIFO `--jobs` pool, all sharing one
//! on-disk pile store — and serves a bounded number of concurrent
//! connections, each speaking the JSONL protocol of [`crate::protocol`].
//! Every `Run` request resolves to an [`ddtr_core::ExploreRequest`],
//! routes deterministically to one worker by content fingerprint
//! ([`crate::route_worker`]), and executes on its own engine bound to
//! that worker's session — so identical requests always meet the same
//! warm cache, concurrent requests interleave fairly at simulation
//! granularity, and results stay byte-identical regardless of fleet
//! size or interleaving.
//!
//! The edge is hardened per `docs/PROTOCOL.md`: an optional auth token
//! checked at `Hello` before any engine work, a per-connection request
//! rate budget, a per-connection in-flight `Run` cap, a request-line
//! size ceiling, and a bounded connection gate in place of unbounded
//! thread-per-connection. Every limit violation is a structured
//! [`Event::Error`] with a machine-readable [`ErrorCode`]; none is a
//! panic.

use crate::endpoint::Endpoint;
use crate::fleet::{open_workers, route_worker, ServerConfig};
use crate::limits::{read_request_line, ConnGate, RateLimiter, RequestLine};
use crate::protocol::{
    ErrorCode, Event, Request, RequestBody, PROTOCOL_VERSION, SERVER_CAPABILITIES,
};
use ddtr_core::{dispatch_observed, CacheStats, ExploreError, ExploreRequest};
use ddtr_engine::{BatchControl, EngineConfig, EngineError, EngineSession};
use ddtr_obs::names::{self, Name};
use ddtr_obs::Gauge;
use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::Scope;
use std::time::Instant;

/// A server-side failure (socket setup, worker/cache construction,
/// daemon plumbing) — everything that can go wrong before or around the
/// protocol, as a structured kind instead of a bare string.
#[derive(Debug)]
pub enum ServeError {
    /// Opening a worker's engine session (or its cache dir) failed.
    Engine(EngineError),
    /// The listen endpoint could not be bound.
    Bind {
        /// The endpoint that failed to bind.
        endpoint: String,
        /// The underlying socket error.
        source: io::Error,
    },
    /// A transport-level I/O failure outside any single connection.
    Io(io::Error),
    /// The endpoint kind does not exist on this platform.
    UnsupportedPlatform(String),
    /// The daemon pidfile could not be created.
    PidFile {
        /// The pidfile path that failed.
        path: std::path::PathBuf,
        /// The underlying filesystem error.
        source: io::Error,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Engine(e) => write!(f, "serve error: {e}"),
            ServeError::Bind { endpoint, source } => {
                write!(f, "serve error: bind {endpoint}: {source}")
            }
            ServeError::Io(e) => write!(f, "serve error: {e}"),
            ServeError::UnsupportedPlatform(what) => write!(f, "serve error: {what}"),
            ServeError::PidFile { path, source } => {
                write!(f, "serve error: pidfile {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Engine(e) => Some(e),
            ServeError::Bind { source, .. } | ServeError::PidFile { source, .. } => Some(source),
            ServeError::Io(e) => Some(e),
            ServeError::UnsupportedPlatform(_) => None,
        }
    }
}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> Self {
        ServeError::Engine(e)
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// Writes the daemonized server's pid to `path`, refusing to clobber an
/// existing file (a stale pidfile means an operator question, not a
/// silent overwrite).
///
/// # Errors
///
/// Returns [`ServeError::PidFile`] when the file exists or cannot be
/// created.
pub fn write_pidfile(path: &Path, pid: u32) -> Result<(), ServeError> {
    let fail = |source| ServeError::PidFile {
        path: path.to_path_buf(),
        source,
    };
    let mut file = std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(path)
        .map_err(fail)?;
    writeln!(file, "{pid}").map_err(fail)
}

/// The shared event writer of one connection: serialises events to one
/// line each and remembers when the peer stopped accepting them.
///
/// A failed write means nobody is reading the answers any more; the
/// failure is recorded (never propagated — the connection is being torn
/// down anyway) so in-flight work can notice and cancel itself instead
/// of simulating for a vanished client.
struct ConnWriter<W: Write> {
    inner: Mutex<W>,
    peer_gone: AtomicBool,
}

impl<W: Write> ConnWriter<W> {
    fn new(writer: W) -> Self {
        ConnWriter {
            inner: Mutex::new(writer),
            peer_gone: AtomicBool::new(false),
        }
    }

    /// Writes one event as one flushed line.
    fn emit(&self, event: &Event) {
        let Ok(line) = serde_json::to_string(event) else {
            return;
        };
        let mut w = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        // ddtr-lint: allow(lock-across-io) — this mutex exists to serialise
        // the write itself; it is never held while simulating, and a stalled
        // peer only stalls its own writer (one ConnWriter per connection).
        if writeln!(w, "{line}").and_then(|()| w.flush()).is_err() {
            self.peer_gone.store(true, Ordering::SeqCst);
        }
    }

    /// Emits a structured `Error` event carrying `code`, bumping the
    /// matching reject counter when one applies.
    fn emit_error(&self, id: Option<String>, code: ErrorCode, error: String) {
        if let Some(name) = reject_counter(code) {
            ddtr_obs::counter(name).inc();
        }
        self.emit(&Event::Error {
            id,
            error,
            code: Some(code),
        });
    }

    /// Whether a write to the peer has failed.
    fn peer_gone(&self) -> bool {
        self.peer_gone.load(Ordering::SeqCst)
    }
}

/// The variant counter a request increments (docs/OBSERVABILITY.md).
fn request_counter(body: &RequestBody) -> Name {
    match body {
        RequestBody::Hello { .. } => names::SERVE_REQUEST_HELLO,
        RequestBody::Ping => names::SERVE_REQUEST_PING,
        RequestBody::Stats => names::SERVE_REQUEST_STATS,
        RequestBody::Metrics => names::SERVE_REQUEST_METRICS,
        RequestBody::Run(_) => names::SERVE_REQUEST_RUN,
        RequestBody::Cancel { .. } => names::SERVE_REQUEST_CANCEL,
        RequestBody::Shutdown => names::SERVE_REQUEST_SHUTDOWN,
    }
}

/// The edge-rejection counter a structured error bumps, when the code
/// marks an edge limit rather than a request-level failure
/// (docs/OBSERVABILITY.md).
fn reject_counter(code: ErrorCode) -> Option<Name> {
    match code {
        ErrorCode::AuthRequired | ErrorCode::AuthFailed => Some(names::SERVE_REJECT_AUTH),
        ErrorCode::RateLimited => Some(names::SERVE_REJECT_RATE),
        ErrorCode::TooLarge => Some(names::SERVE_REJECT_OVERSIZE),
        ErrorCode::Overloaded => Some(names::SERVE_REJECT_OVERLOAD),
        _ => None,
    }
}

/// The message a caught panic carries (`panic!` with a literal or a
/// formatted string).
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("no message")
}

/// Records one end-to-end request latency sample: receipt of the request
/// line to emission of its terminal event.
fn record_latency(arrived: Instant) {
    ddtr_obs::histogram(names::SERVE_REQUEST_LATENCY).record_duration(arrived.elapsed());
}

/// The capability list `Hello` and `Welcome` advertise.
fn capabilities() -> Vec<String> {
    SERVER_CAPABILITIES.iter().map(|s| s.to_string()).collect()
}

/// Why the edge turned a request line away: the code and text of its
/// `Error` event, and the request id it echoes (none for a line that did
/// not parse).
struct Rejection {
    id: Option<String>,
    code: ErrorCode,
    error: String,
}

impl Rejection {
    fn new(id: Option<String>, code: ErrorCode, error: impl Into<String>) -> Self {
        Rejection {
            id,
            code,
            error: error.into(),
        }
    }

    /// A line that is not a request, counted as malformed.
    fn malformed(detail: impl fmt::Display) -> Self {
        ddtr_obs::counter(names::SERVE_REQUEST_MALFORMED).inc();
        Rejection::new(
            None,
            ErrorCode::Parse,
            format!("unparseable request: {detail}"),
        )
    }
}

/// What a connection does with a request its admission rules let in.
enum Admitted {
    /// Emit this terminal event now.
    Reply(Event),
    /// Route this resolved `Run` and start it; its worker answers it.
    Run(String, Box<ExploreRequest>),
    /// Emit nothing: a `Cancel` of a live target, which answers with
    /// `Cancelled` on its own id.
    Quiet,
    /// Stop reading: the request was `Shutdown`.
    Stop,
}

/// What the `Run` workers of one connection share: its event writer and
/// its in-flight requests by id, whose count the in-flight budget caps.
struct Conn<W: Write> {
    writer: Arc<ConnWriter<W>>,
    inflight: Mutex<HashMap<String, BatchControl>>,
}

/// The long-running exploration server: a fleet of worker sessions
/// behind one hardened listener. See the crate docs for the protocol,
/// [`ServerConfig`] for the knobs and [`EngineSession`] for each
/// worker's sharing/fairness model.
#[derive(Debug)]
pub struct Server {
    cfg: ServerConfig,
    /// Worker 0 — always present, also the compatibility session of
    /// [`Server::session`].
    session: EngineSession,
    /// Workers 1…N-1.
    extra: Vec<EngineSession>,
    /// Per-worker in-flight gauges (`serve.worker<N>.inflight`), resolved
    /// once at startup so a `Run` formats and looks up no name.
    worker_gauges: Vec<Arc<Gauge>>,
    conns: ConnGate,
    shutdown: AtomicBool,
}

impl Server {
    /// Builds a single-worker, open (no auth, default limits) server —
    /// the pre-fleet constructor, kept for callers that just want a
    /// session behind the protocol.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] when the cache directory cannot be opened.
    pub fn new(cfg: EngineConfig) -> Result<Self, ServeError> {
        Self::with_config(ServerConfig::new(cfg))
    }

    /// Builds a fleet server: `cfg.workers` sessions over one shared
    /// store, plus the edge limits of [`ServerConfig`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] when a worker's cache directory cannot be
    /// opened.
    pub fn with_config(cfg: ServerConfig) -> Result<Self, ServeError> {
        let mut workers = open_workers(&cfg)?;
        // `open_workers` clamps to at least one; treat an empty vec as
        // the config asking for a single worker anyway.
        let session = match workers.is_empty() {
            false => workers.remove(0),
            true => EngineSession::new(cfg.engine.clone())?,
        };
        let worker_gauges = (0..=workers.len())
            .map(|i| ddtr_obs::indexed_gauge(names::SERVE_WORKER_INFLIGHT, i))
            .collect();
        let conns = ConnGate::new(cfg.max_connections);
        Ok(Server {
            cfg,
            session,
            extra: workers,
            worker_gauges,
            conns,
            shutdown: AtomicBool::new(false),
        })
    }

    /// The server's primary (worker 0) engine session.
    #[must_use]
    pub fn session(&self) -> &EngineSession {
        &self.session
    }

    /// The server's configuration.
    #[must_use]
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// Worker sessions behind the listener.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        1 + self.extra.len()
    }

    /// The worker a resolved request routes to (see
    /// [`crate::route_worker`]).
    #[must_use]
    pub fn route(&self, request: &ExploreRequest) -> usize {
        route_worker(request, self.worker_count())
    }

    /// The session of worker `idx`; out-of-range indexes fall back to
    /// worker 0 (routing never produces one).
    fn worker(&self, idx: usize) -> &EngineSession {
        if idx == 0 {
            &self.session
        } else {
            self.extra.get(idx - 1).unwrap_or(&self.session)
        }
    }

    /// Cache counters summed across the fleet: every worker's in-memory
    /// view over the one shared store.
    #[must_use]
    pub fn fleet_stats(&self) -> CacheStats {
        let mut total = self.session.stats();
        for worker in &self.extra {
            let s = worker.stats();
            total.entries += s.entries;
            total.hits += s.hits;
            total.misses += s.misses;
            total.loaded = total.loaded.max(s.loaded);
        }
        total
    }

    /// Whether a `Shutdown` request has been received.
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Serves one connection until EOF or a `Shutdown` request: reads one
    /// JSON [`Request`] per line (bounded by the configured size
    /// ceiling), runs `Run` requests concurrently on their routed worker
    /// sessions, and streams [`Event`] lines (interleaved across
    /// requests, each tagged with its request id). Every line takes one
    /// admission path — parse, count, rate, auth, the body's own rules —
    /// and a line it turns away gets one coded `Error` event per
    /// `docs/PROTOCOL.md` (with a null id when the line did not parse);
    /// only a wrong auth token ends the connection. All in-flight work
    /// finishes (or is cancelled) before the final `Bye`.
    pub fn serve_connection<R, W>(&self, mut reader: R, writer: W)
    where
        R: BufRead,
        W: Write + Send + 'static,
    {
        let conn = Conn {
            writer: Arc::new(ConnWriter::new(writer)),
            inflight: Mutex::new(HashMap::new()),
        };
        ddtr_obs::gauge(names::SERVE_CONN_ACTIVE).inc();
        conn.writer.emit(&Event::Hello {
            protocol: PROTOCOL_VERSION,
            server: format!("ddtr_serve {}", env!("CARGO_PKG_VERSION")),
            jobs: self.session.jobs(),
            capabilities: capabilities(),
            workers: self.worker_count(),
        });
        // Authenticated yet (immediately, on an open server), and this
        // connection's request budget.
        let mut authed = self.cfg.auth_token.is_none();
        let mut rate = RateLimiter::new(self.cfg.rate_limit);
        std::thread::scope(|scope| loop {
            let read = read_request_line(&mut reader, self.cfg.max_request_bytes);
            // A line's end-to-end latency runs from here to its terminal
            // event (docs/OBSERVABILITY.md).
            let arrived = Instant::now();
            let parsed = match read {
                Ok(RequestLine::Eof) | Err(_) => break,
                Ok(RequestLine::Line(text)) if text.trim().is_empty() => continue,
                Ok(RequestLine::Line(text)) => {
                    serde_json::from_str::<Request>(&text).map_err(Rejection::malformed)
                }
                Ok(RequestLine::TooLarge) => Err(Rejection::new(
                    None,
                    ErrorCode::TooLarge,
                    format!(
                        "request line exceeds the {}-byte ceiling and was discarded",
                        self.cfg.max_request_bytes
                    ),
                )),
                Ok(RequestLine::NotUtf8) => Err(Rejection::malformed("not valid UTF-8")),
            };
            if let Ok(request) = &parsed {
                ddtr_obs::counter(request_counter(&request.body)).inc();
            }
            // The rate budget covers every line that gets an answer — the
            // cheap and the unparseable ones are exactly what a
            // misbehaving client floods.
            let admitted = if rate.admit() {
                parsed.and_then(|request| self.admit(&conn, &mut authed, request))
            } else {
                Err(Rejection::new(
                    parsed.ok().map(|request| request.id),
                    ErrorCode::RateLimited,
                    "request rate limit exceeded; back off and retry",
                ))
            };
            let closes = match admitted {
                Ok(Admitted::Reply(event)) => {
                    conn.writer.emit(&event);
                    false
                }
                Ok(Admitted::Run(id, explore)) => {
                    self.start(scope, &conn, id, *explore, arrived);
                    continue;
                }
                Ok(Admitted::Quiet) => continue,
                Ok(Admitted::Stop) => break,
                Err(Rejection { id, code, error }) => {
                    conn.writer.emit_error(id, code, error);
                    // A wrong secret ends the conversation; guessing is
                    // not free retries on a live socket.
                    code == ErrorCode::AuthFailed
                }
            };
            record_latency(arrived);
            if closes {
                break;
            }
        });
        // Leaving the scope joined every in-flight request. Plain EOF does
        // NOT cancel them: in stdio batch mode (`printf … | ddtr serve`)
        // the answers are still wanted after stdin closes. Abandoned work
        // is caught by its progress observer the moment a write fails.
        conn.writer.emit(&Event::Bye);
        ddtr_obs::gauge(names::SERVE_CONN_ACTIVE).dec();
    }

    /// The admission rules after the rate budget: the auth gate, then the
    /// rules of the request's body, down to resolving a `Run`.
    fn admit<W: Write>(
        &self,
        conn: &Conn<W>,
        authed: &mut bool,
        Request { id, body }: Request,
    ) -> Result<Admitted, Rejection> {
        let refuse = |code, error: String| Err(Rejection::new(Some(id.clone()), code, error));
        match body {
            // The auth gate: until the connection authenticates, `Hello`
            // is the only request that reaches any further — nothing
            // below costs engine work before this point.
            _ if !*authed && !matches!(body, RequestBody::Hello { .. }) => refuse(
                ErrorCode::AuthRequired,
                "authentication required: send Hello with the auth token first".into(),
            ),
            RequestBody::Hello {
                proto_version,
                auth,
                capabilities: _,
            } => match (&self.cfg.auth_token, auth) {
                _ if proto_version != PROTOCOL_VERSION => refuse(
                    ErrorCode::UnsupportedProtocol,
                    format!(
                        "unsupported protocol version {proto_version} \
                         (this server speaks {PROTOCOL_VERSION})"
                    ),
                ),
                (Some(expected), Some(token)) if token != *expected => {
                    refuse(ErrorCode::AuthFailed, "auth token rejected".into())
                }
                (Some(_), None) => refuse(
                    ErrorCode::AuthRequired,
                    "this server requires an auth token".into(),
                ),
                _ => {
                    *authed = true;
                    Ok(Admitted::Reply(Event::Welcome {
                        id,
                        protocol: PROTOCOL_VERSION,
                        capabilities: capabilities(),
                    }))
                }
            },
            RequestBody::Ping => Ok(Admitted::Reply(Event::Pong { id })),
            RequestBody::Stats => Ok(Admitted::Reply(Event::Stats {
                id,
                stats: self.fleet_stats(),
                jobs: self.session.jobs(),
                metrics: Box::new(ddtr_obs::snapshot()),
            })),
            RequestBody::Metrics => Ok(Admitted::Reply(Event::Metrics {
                id,
                text: ddtr_obs::render_prometheus(&ddtr_obs::snapshot()),
            })),
            RequestBody::Cancel { target } => {
                let control = conn
                    .inflight
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .get(&target)
                    .cloned();
                match control {
                    // The cancelled request replies `Cancelled` on its own
                    // id.
                    Some(control) => {
                        control.cancel();
                        Ok(Admitted::Quiet)
                    }
                    None => refuse(
                        ErrorCode::UnknownTarget,
                        format!("no in-flight request `{target}` (unknown or finished)"),
                    ),
                }
            }
            RequestBody::Shutdown => {
                self.shutdown.store(true, Ordering::SeqCst);
                Ok(Admitted::Stop)
            }
            RequestBody::Run(spec) => {
                let inflight = conn.inflight.lock().unwrap_or_else(PoisonError::into_inner);
                let (duplicate, running) = (inflight.contains_key(&id), inflight.len());
                drop(inflight);
                if duplicate {
                    // A duplicate id would make the earlier request
                    // uncancellable and the event streams
                    // indistinguishable.
                    refuse(
                        ErrorCode::DuplicateId,
                        "a request with this id is already in flight".into(),
                    )
                } else if running >= self.cfg.max_inflight {
                    // The per-connection executor budget: reject rather
                    // than queue, so one connection cannot hoard every
                    // scoped thread.
                    refuse(
                        ErrorCode::Overloaded,
                        format!(
                            "connection already has {} runs in flight (the limit); \
                             wait for one to finish",
                            self.cfg.max_inflight
                        ),
                    )
                } else {
                    match spec.resolve() {
                        Ok(explore) => Ok(Admitted::Run(id, Box::new(explore))),
                        Err(error) => refuse(error.code(), error.to_string()),
                    }
                }
            }
        }
    }

    /// Routes an admitted `Run` and starts it on its worker, which emits
    /// its progress and its terminal event.
    fn start<'scope, 'env: 'scope, W: Write + Send + 'static>(
        &'env self,
        scope: &'scope Scope<'scope, 'env>,
        conn: &'env Conn<W>,
        id: String,
        explore: ExploreRequest,
        arrived: Instant,
    ) {
        // Deterministic fleet placement: the resolved request's content
        // fingerprint picks the worker, so identical work always meets the
        // same warm in-memory cache.
        let worker_idx = self.route(&explore);
        let session = self.worker(worker_idx);
        let worker_gauge = self.worker_gauges.get(worker_idx);
        conn.writer.emit(&Event::Queued { id: id.clone() });
        // Progress observer: emits monotone `Running` lines, throttled to
        // ~1% steps (plus every phase completion) so huge runs don't flood
        // the wire; workers race between counting and reporting, so
        // non-increasing snapshots are dropped. When the peer stops
        // accepting events the observer cancels its own request — nobody
        // is left to read the answer.
        let progress_writer = Arc::clone(&conn.writer);
        let progress_id = id.clone();
        let last_done = AtomicUsize::new(0);
        let own_token: Arc<OnceLock<ddtr_engine::CancelToken>> = Arc::new(OnceLock::new());
        let observer_token = Arc::clone(&own_token);
        let control = BatchControl::observed(move |p| {
            let stride = (p.total / 100).max(1);
            let prev = last_done.load(Ordering::SeqCst);
            if p.done > 0
                && (p.done == p.total || p.done >= prev + stride)
                && last_done.fetch_max(p.done, Ordering::SeqCst) < p.done
            {
                progress_writer.emit(&Event::Running {
                    id: progress_id.clone(),
                    done: p.done,
                    total: p.total,
                });
            }
            if progress_writer.peer_gone() {
                if let Some(token) = observer_token.get() {
                    token.cancel();
                }
            }
        });
        let _ = own_token.set(control.token());
        conn.inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(id.clone(), control.clone());
        let queued_at = Instant::now();
        ddtr_obs::gauge(names::SERVE_INFLIGHT).inc();
        if let Some(gauge) = worker_gauge {
            gauge.inc();
        }
        scope.spawn(move || {
            ddtr_obs::histogram(names::SERVE_REQUEST_QUEUE_WAIT)
                .record_duration(queued_at.elapsed());
            let mut engine = session.engine_with(control);
            // A panic costs this request only: it ends as an `Internal`
            // error and releases everything below like any other error.
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                // Sweep requests additionally stream one `Cell` line per
                // completed platform cell; every other mode never invokes
                // the observer.
                dispatch_observed(&mut engine, &explore, |cell, done, total| {
                    conn.writer.emit(&Event::Cell {
                        id: id.clone(),
                        done,
                        total,
                        app: cell.app,
                        scenario: cell.scenario,
                        mem: cell.mem,
                        front: cell.front_labels(),
                    });
                })
            }))
            .unwrap_or_else(|payload| {
                Err(ExploreError::Engine(format!(
                    "exploration panicked: {}",
                    panic_message(payload.as_ref())
                )))
            });
            // Out of the in-flight set before its answer goes out, so a
            // client that waits for the answer finds the budget free.
            conn.inflight
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .remove(&id);
            let progress = engine.control().progress();
            let event = match outcome {
                Ok(result) => Event::Result {
                    id,
                    executed: progress.executed,
                    cache_hits: progress.hits,
                    result: Box::new(result),
                },
                Err(ExploreError::Cancelled) => Event::Cancelled { id },
                Err(e) => Event::Error {
                    id: Some(id),
                    error: e.to_string(),
                    code: Some(ErrorCode::Internal),
                },
            };
            conn.writer.emit(&event);
            ddtr_obs::gauge(names::SERVE_INFLIGHT).dec();
            if let Some(gauge) = worker_gauge {
                gauge.dec();
            }
            record_latency(arrived);
        });
    }

    /// The accept loop of both socket transports (see
    /// [`Server::serve_tcp`]). `split` clones a read half off an accepted
    /// stream; `wake` connects to the listener, so that the loop, blocked
    /// in `accept`, sees a `Shutdown` a connection took.
    fn accept<S: Read + Write + Send + 'static>(
        &self,
        incoming: impl Iterator<Item = io::Result<S>>,
        split: fn(&S) -> io::Result<S>,
        wake: impl Fn() + Sync,
    ) {
        std::thread::scope(|scope| {
            for conn in incoming {
                if self.shutdown_requested() {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let Some(slot) = self.conns.acquire() else {
                    // Turned away with a coded error and `Bye`, never
                    // silence, so the client can tell a full server from
                    // a dead one.
                    let writer = ConnWriter::new(stream);
                    writer.emit_error(
                        None,
                        ErrorCode::Overloaded,
                        format!(
                            "server is at its {}-connection capacity; retry later",
                            self.cfg.max_connections
                        ),
                    );
                    writer.emit(&Event::Bye);
                    continue;
                };
                let wake = &wake;
                scope.spawn(move || {
                    let _slot = slot;
                    let Ok(read_half) = split(&stream) else {
                        return;
                    };
                    self.serve_connection(BufReader::new(read_half), stream);
                    if self.shutdown_requested() {
                        wake();
                    }
                });
            }
        });
    }

    /// Accept loop over an already-bound TCP listener; each accepted
    /// connection takes one bounded connection slot and is served
    /// concurrently; connections beyond the gate's capacity are turned
    /// away with an `Overloaded` error. Returns after a `Shutdown`
    /// request once every open connection has finished.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the listener's local address cannot be
    /// resolved.
    pub fn serve_tcp(&self, listener: &TcpListener) -> io::Result<()> {
        let local = listener.local_addr()?;
        // Event lines are small and latency-bound; never hold them back
        // for coalescing (Nagle + delayed ACK costs tens of ms per
        // request/reply round trip).
        let incoming = listener.incoming().map(|conn| {
            conn.inspect(|stream| {
                let _ = stream.set_nodelay(true);
            })
        });
        self.accept(incoming, TcpStream::try_clone, || {
            let _ = TcpStream::connect(local);
        });
        Ok(())
    }

    /// Accept loop over an already-bound Unix socket listener; the Unix
    /// counterpart of [`Server::serve_tcp`].
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the listener's local address cannot be
    /// resolved.
    #[cfg(unix)]
    pub fn serve_unix(&self, listener: &UnixListener) -> io::Result<()> {
        let path = listener.local_addr()?.as_pathname().map(Path::to_path_buf);
        self.accept(listener.incoming(), UnixStream::try_clone, || {
            if let Some(path) = &path {
                let _ = UnixStream::connect(path);
            }
        });
        Ok(())
    }

    /// Binds `endpoint` and serves it until shutdown, announcing the
    /// bound address on stderr (useful with `tcp:127.0.0.1:0`).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] when the endpoint cannot be bound (or is a
    /// Unix socket on a non-Unix platform).
    pub fn listen(&self, endpoint: &Endpoint) -> Result<(), ServeError> {
        let bind = |source| ServeError::Bind {
            endpoint: endpoint.to_string(),
            source,
        };
        let announce = |bound: &dyn fmt::Display| {
            eprintln!(
                "ddtr serve: listening on {bound} (workers={}, jobs={})",
                self.worker_count(),
                self.session.jobs()
            );
        };
        match endpoint {
            Endpoint::Stdio => {
                announce(endpoint);
                self.serve_connection(io::stdin().lock(), io::stdout());
            }
            Endpoint::Tcp(addr) => {
                let listener = TcpListener::bind(addr.as_str()).map_err(bind)?;
                announce(&format!("tcp:{}", listener.local_addr()?));
                self.serve_tcp(&listener)?;
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                let listener = UnixListener::bind(path).map_err(bind)?;
                announce(endpoint);
                let served = self.serve_unix(&listener);
                let _ = std::fs::remove_file(path);
                served?;
            }
            #[cfg(not(unix))]
            Endpoint::Unix(path) => {
                return Err(ServeError::UnsupportedPlatform(format!(
                    "unix:{} endpoints need a Unix platform",
                    path.display()
                )))
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_errors_display_their_kind() {
        let bind = ServeError::Bind {
            endpoint: "tcp:127.0.0.1:1".into(),
            source: io::Error::new(io::ErrorKind::AddrInUse, "in use"),
        };
        assert!(bind.to_string().contains("bind tcp:127.0.0.1:1"));
        assert!(std::error::Error::source(&bind).is_some());
        let io_err = ServeError::from(io::Error::other("boom"));
        assert!(io_err.to_string().starts_with("serve error:"));
        assert!(matches!(io_err, ServeError::Io(_)));
    }

    #[test]
    fn pidfile_refuses_to_clobber() {
        let dir = ddtr_engine::testing::TempCacheDir::new("pidfile");
        let path = dir.path().join("serve.pid");
        write_pidfile(&path, 4242).expect("first write");
        let text = std::fs::read_to_string(&path).expect("readable");
        assert_eq!(text.trim(), "4242");
        let err = write_pidfile(&path, 1).expect_err("second write refused");
        assert!(matches!(err, ServeError::PidFile { .. }), "{err}");
        assert!(err.to_string().contains("pidfile"), "{err}");
    }

    #[test]
    fn fleet_servers_open_and_route() {
        let cfg = ServerConfig {
            workers: 3,
            ..ServerConfig::new(EngineConfig::with_jobs(1))
        };
        let server = Server::with_config(cfg).expect("fleet opens");
        assert_eq!(server.worker_count(), 3);
        let request = crate::protocol::JobSpec {
            quick: true,
            ..crate::protocol::JobSpec::preset("explore", Some("drr"))
        }
        .resolve()
        .expect("resolves");
        let idx = server.route(&request);
        assert!(idx < 3);
        assert_eq!(idx, server.route(&request), "stable placement");
        let stats = server.fleet_stats();
        assert_eq!(stats.entries, 0, "fresh fleet");
        // Out-of-range worker lookups fall back to worker 0.
        assert_eq!(server.worker(9).jobs(), server.session().jobs());
    }
}
