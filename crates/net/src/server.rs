//! The blocking TCP server: N client connections fanned into one shared
//! [`Session`].
//!
//! One thread accepts connections; each connection gets a handler thread
//! that reads request frames, submits compiles through
//! [`Session::submit_shared`] (so a thundering herd of identical
//! requests costs one pipeline execution) and writes response frames
//! back. Admission is bounded: when [`ServerConfig::max_inflight`]
//! compile jobs are already running, further compiles are answered with
//! [`Response::Busy`] immediately — backpressure is a typed reply, never
//! a hang, and a rejected request is never half-enqueued.
//!
//! Shutdown is graceful: [`ServerControl::shutdown`] (or a
//! [`Request::Shutdown`] frame) flips a flag and wakes the acceptor;
//! [`Server::serve`] then stops accepting, joins every handler — each of
//! which finishes the compile it is waiting on and answers any frame
//! already buffered on its socket with [`Response::ShuttingDown`] —
//! and returns. In-flight jobs are drained, not dropped.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use zz_obs::{Counter, Gauge, Histogram, Registry};
use zz_persist::ArtifactKind;
use zz_service::Session;

use crate::envelope::{CompiledEnvelope, Request, Response};
use crate::frame::{read_frame, write_frame, FrameError};

/// Tuning knobs for a [`Server`].
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Upper bound on concurrently executing compile jobs across all
    /// connections; compiles beyond it are answered [`Response::Busy`].
    pub max_inflight: usize,
    /// How often an idle handler wakes to check the shutdown flag. Also
    /// the worst-case lag between [`ServerControl::shutdown`] and an
    /// idle connection closing.
    pub poll: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_inflight: 64,
            poll: Duration::from_millis(25),
        }
    }
}

/// The server's standing handles into the session's metrics registry —
/// registered once at bind, updated with plain atomic ops per frame.
/// Scrape them with `Request::Stats` or `Session::metrics().snapshot()`.
#[derive(Debug)]
struct NetMetrics {
    /// `net.connections` — connections accepted.
    connections: Arc<Counter>,
    /// `net.frames` — well-formed request frames served.
    frames: Arc<Counter>,
    /// `net.malformed` — damaged frames answered (and connections closed).
    malformed: Arc<Counter>,
    /// `net.admitted` — compiles admitted past the backpressure gate.
    admitted: Arc<Counter>,
    /// `net.busy` — compiles answered [`Response::Busy`].
    busy: Arc<Counter>,
    /// `net.inflight` — compiles admitted and not yet answered.
    inflight: Arc<Gauge>,
    /// `net.admission_wait_us` — frame decode → admission decision.
    admission_wait: Arc<Histogram>,
}

impl NetMetrics {
    fn new(session: &Session) -> Self {
        let registry = session.metrics();
        NetMetrics {
            connections: registry.counter("net.connections"),
            frames: registry.counter("net.frames"),
            malformed: registry.counter("net.malformed"),
            admitted: registry.counter("net.admitted"),
            busy: registry.counter("net.busy"),
            inflight: registry.gauge("net.inflight"),
            admission_wait: registry.histogram("net.admission_wait_us"),
        }
    }
}

/// State shared by the acceptor, every handler thread and every
/// [`ServerControl`].
#[derive(Debug)]
struct Shared {
    config: ServerConfig,
    addr: SocketAddr,
    shutdown: AtomicBool,
    /// Compile jobs currently executing (admitted, not yet answered).
    inflight: AtomicUsize,
    /// Cumulative compile jobs admitted past the backpressure gate.
    admitted: AtomicUsize,
    /// Cumulative compiles answered [`Response::Busy`].
    busy: AtomicUsize,
    /// Published twins of the counters above (plus per-frame ones) in
    /// the session's registry, for the `Stats` endpoint.
    metrics: NetMetrics,
    /// An additional registry layered into every `Stats` response — how
    /// a fleet surfaces its dispatch/drift metrics through a device
    /// server's wire endpoint. `None` for plain servers.
    extra_stats: Option<Arc<Registry>>,
}

impl Shared {
    /// Reserves an admission slot, or reports backpressure.
    fn try_admit(&self) -> bool {
        let admitted = self
            .inflight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < self.config.max_inflight).then_some(n + 1)
            })
            .is_ok();
        if admitted {
            self.admitted.fetch_add(1, Ordering::Relaxed);
            self.metrics.admitted.inc();
            self.metrics.inflight.inc();
        } else {
            self.busy.fetch_add(1, Ordering::Relaxed);
            self.metrics.busy.inc();
        }
        admitted
    }

    fn release(&self) {
        self.inflight.fetch_sub(1, Ordering::AcqRel);
        self.metrics.inflight.dec();
    }

    /// Flips the shutdown flag and nudges the acceptor awake with a
    /// throwaway connection (the acceptor blocks in `accept`, so the
    /// flag alone would only be seen at the next organic connection).
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        drop(TcpStream::connect(self.addr));
    }

    fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }
}

/// A handle for stopping and observing a running [`Server`] from another
/// thread. Cheap to clone.
#[derive(Clone, Debug)]
pub struct ServerControl {
    shared: Arc<Shared>,
}

impl ServerControl {
    /// Asks the server to shut down gracefully: stop accepting, drain
    /// in-flight jobs, then return from [`Server::serve`]. Idempotent.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Cumulative compile requests admitted past the backpressure gate
    /// (tests use this to know every submission is in flight before
    /// triggering shutdown).
    pub fn admitted(&self) -> usize {
        self.shared.admitted.load(Ordering::Relaxed)
    }

    /// Cumulative compile requests answered [`Response::Busy`].
    pub fn busy_rejections(&self) -> usize {
        self.shared.busy.load(Ordering::Relaxed)
    }
}

/// A blocking TCP front door over one shared [`Session`]. See the
/// [module docs](self) for the threading and shutdown model.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    session: Arc<Session>,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port, then
    /// [`local_addr`](Self::local_addr)) serving the given session with
    /// the default [`ServerConfig`].
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the address cannot be bound.
    pub fn bind(addr: impl ToSocketAddrs, session: Arc<Session>) -> std::io::Result<Self> {
        Self::bind_with(addr, session, ServerConfig::default())
    }

    /// Like [`bind`](Self::bind) with explicit tuning knobs.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the address cannot be bound.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        session: Arc<Session>,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        Self::bind_inner(addr, session, config, None)
    }

    /// Like [`bind_with`](Self::bind_with), additionally layering
    /// `extra_stats` into every `Stats` response (session names win on
    /// collision) — so a fleet's dispatch/drift registry is scrapeable
    /// through the same wire endpoint as the device's own metrics.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the address cannot be bound.
    pub fn bind_with_stats(
        addr: impl ToSocketAddrs,
        session: Arc<Session>,
        config: ServerConfig,
        extra_stats: Arc<Registry>,
    ) -> std::io::Result<Self> {
        Self::bind_inner(addr, session, config, Some(extra_stats))
    }

    fn bind_inner(
        addr: impl ToSocketAddrs,
        session: Arc<Session>,
        config: ServerConfig,
        extra_stats: Option<Arc<Registry>>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let metrics = NetMetrics::new(&session);
        Ok(Server {
            listener,
            session,
            shared: Arc::new(Shared {
                config,
                addr,
                shutdown: AtomicBool::new(false),
                inflight: AtomicUsize::new(0),
                admitted: AtomicUsize::new(0),
                busy: AtomicUsize::new(0),
                metrics,
                extra_stats,
            }),
        })
    }

    /// The address the server actually bound (resolves port 0).
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the socket cannot report its address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A control handle usable from other threads while
    /// [`serve`](Self::serve) blocks this one.
    pub fn control(&self) -> ServerControl {
        ServerControl {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Accepts and serves connections until shutdown is requested, then
    /// drains: every handler thread is joined, so every admitted job has
    /// been answered when this returns.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if accepting fails for a reason other than
    /// shutdown.
    pub fn serve(self) -> std::io::Result<()> {
        let mut handlers: Vec<JoinHandle<()>> = Vec::new();
        loop {
            let (stream, _) = self.listener.accept()?;
            if self.shared.is_shutting_down() {
                break;
            }
            handlers.retain(|h| !h.is_finished());
            let session = Arc::clone(&self.session);
            let shared = Arc::clone(&self.shared);
            handlers.push(std::thread::spawn(move || {
                handle_connection(stream, &session, &shared);
            }));
        }
        for handler in handlers {
            let _ = handler.join();
        }
        Ok(())
    }
}

/// Serves one connection until the peer disconnects, a frame is
/// malformed, or shutdown completes. Never panics on wire input; every
/// exit path closes the socket.
fn handle_connection(mut stream: TcpStream, session: &Session, shared: &Shared) {
    if stream.set_read_timeout(Some(shared.config.poll)).is_err() {
        return;
    }
    shared.metrics.connections.inc();
    loop {
        let request = match read_frame::<Request>(&mut stream, ArtifactKind::NetRequest) {
            Ok(request) => request,
            Err(FrameError::IdleTimeout) => {
                if shared.is_shutting_down() {
                    return;
                }
                continue;
            }
            Err(FrameError::Disconnected) | Err(FrameError::Io(_)) => return,
            Err(error @ (FrameError::Decode(_) | FrameError::Oversized { .. })) => {
                // A damaged frame poisons the stream (framing is lost),
                // so answer once and drop the connection.
                shared.metrics.malformed.inc();
                let reply = Response::Malformed {
                    detail: error.to_string(),
                };
                let _ = write_frame(&mut stream, ArtifactKind::NetResponse, &reply);
                return;
            }
        };
        shared.metrics.frames.inc();
        let response = respond(request, session, shared);
        if write_frame(&mut stream, ArtifactKind::NetResponse, &response).is_err() {
            return;
        }
        let _ = stream.flush();
    }
}

/// Computes the reply for one well-formed request.
fn respond(request: Request, session: &Session, shared: &Shared) -> Response {
    match request {
        Request::Ping => Response::Pong,
        Request::Shutdown => {
            shared.begin_shutdown();
            Response::ShuttingDown
        }
        Request::Compile(envelope) => {
            if shared.is_shutting_down() {
                return Response::ShuttingDown;
            }
            let arrived = Instant::now();
            if !shared.try_admit() {
                return Response::Busy;
            }
            shared
                .metrics
                .admission_wait
                .observe_micros(arrived.elapsed());
            let handle = session.submit_shared(envelope.into_compile_request());
            let outcome = handle.wait();
            shared.release();
            match outcome {
                Ok(response) => {
                    Response::Compiled(Box::new(CompiledEnvelope::from_response(response)))
                }
                Err(error) => Response::Error(error),
            }
        }
        // Monitoring is never subject to compile admission: a saturated
        // (or draining) server still answers its scrapes.
        Request::Stats => {
            let mut snapshot = session.metrics().snapshot();
            if let Some(extra) = &shared.extra_stats {
                snapshot.merge_from(&extra.snapshot());
            }
            Response::Stats(snapshot)
        }
    }
}
