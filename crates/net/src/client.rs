//! The blocking client: one TCP connection, one request/response pair
//! per call.

use std::net::{SocketAddr, TcpStream, ToSocketAddrs};

use zz_obs::MetricsSnapshot;
use zz_persist::ArtifactKind;
use zz_service::Error as ServiceError;

use crate::envelope::{CompileEnvelope, CompiledEnvelope, Request, Response};
use crate::frame::{read_frame, write_frame, FrameError};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport or the framing failed (disconnect, damage, I/O).
    Frame(FrameError),
    /// The server's admission queue was full — backpressure, not
    /// failure. Nothing was enqueued; retry after a backoff.
    Busy,
    /// The server is draining and accepted no new work.
    ShuttingDown,
    /// The server could not decode our frame (and closed the
    /// connection).
    Rejected(String),
    /// The compile itself failed with a typed service error —
    /// the same taxonomy an in-process `Session` reports.
    Service(ServiceError),
    /// The server answered with a response that does not fit the
    /// request (e.g. a pong to a compile).
    Unexpected(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "transport failed: {e}"),
            ClientError::Busy => write!(f, "server is at capacity (retry after a backoff)"),
            ClientError::ShuttingDown => write!(f, "server is shutting down"),
            ClientError::Rejected(detail) => write!(f, "server rejected the frame: {detail}"),
            ClientError::Service(e) => write!(f, "compile failed: {e}"),
            ClientError::Unexpected(what) => write!(f, "unexpected response: {what}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Frame(e) => Some(e),
            ClientError::Service(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Frame(FrameError::Io(e))
    }
}

/// A blocking connection to a `zz_net` [`Server`](crate::Server).
///
/// One request is in flight at a time per client; open more clients for
/// concurrency (the server fans them into one shared session, and
/// identical concurrent compiles coalesce onto one job server-side).
///
/// The client remembers the addresses it resolved at
/// [`connect`](Client::connect) time, so a dropped connection is
/// recoverable: [`ensure_connected`](Client::ensure_connected) re-dials
/// on demand, and the idempotent calls ([`ping`](Client::ping),
/// [`stats`](Client::stats)) transparently re-dial and retry once when
/// the transport fails mid-call. Compiles are *not* auto-retried — a
/// dropped connection cannot tell the caller whether the server already
/// enqueued the job.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    addrs: Vec<SocketAddr>,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the connection cannot be established (or
    /// if `addr` resolves to no addresses).
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let stream = dial(&addrs)?;
        Ok(Client { stream, addrs })
    }

    /// Replaces a dead connection with a fresh one to the same server,
    /// verified by a ping. A healthy connection is left alone (the probe
    /// ping is the only traffic), so calling this before every batch of
    /// work is cheap.
    ///
    /// # Errors
    ///
    /// Returns a [`ClientError`] when the probe fails *and* re-dialing
    /// (or the ping on the fresh connection) fails too.
    pub fn ensure_connected(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Ping) {
            Ok(Response::Pong) => Ok(()),
            Ok(other) => Err(unexpected(other)),
            Err(_) => {
                self.stream = dial(&self.addrs)?;
                match self.request(&Request::Ping)? {
                    Response::Pong => Ok(()),
                    other => Err(unexpected(other)),
                }
            }
        }
    }

    /// Sends one request frame and reads one response frame.
    ///
    /// # Errors
    ///
    /// Returns a [`FrameError`] if the transport fails or the response
    /// frame is damaged.
    pub fn request(&mut self, request: &Request) -> Result<Response, FrameError> {
        write_frame(&mut self.stream, ArtifactKind::NetRequest, request).map_err(FrameError::Io)?;
        read_frame(&mut self.stream, ArtifactKind::NetResponse)
    }

    /// [`request`](Client::request) for *idempotent* requests: a
    /// transport failure (disconnect or I/O) re-dials the remembered
    /// addresses and retries exactly once. Damaged-but-delivered
    /// responses are not retried — the connection is alive, the bytes
    /// were bad.
    fn request_idempotent(&mut self, request: &Request) -> Result<Response, FrameError> {
        match self.request(request) {
            Ok(response) => Ok(response),
            Err(first @ (FrameError::Disconnected | FrameError::Io(_))) => {
                match dial(&self.addrs) {
                    Ok(stream) => {
                        self.stream = stream;
                        self.request(request)
                    }
                    Err(_) => Err(first),
                }
            }
            Err(other) => Err(other),
        }
    }

    /// Liveness probe. Idempotent: a dropped connection is re-dialed and
    /// the ping retried once before the error surfaces.
    ///
    /// # Errors
    ///
    /// Returns a [`ClientError`] if the transport fails or the server
    /// answers with anything but a pong.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.request_idempotent(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Compiles one circuit remotely, blocking until the server answers.
    ///
    /// # Errors
    ///
    /// [`ClientError::Busy`] under backpressure (retry after a backoff),
    /// [`ClientError::Service`] when the compile itself failed, and
    /// [`ClientError::Frame`] when the transport did.
    pub fn compile(&mut self, envelope: CompileEnvelope) -> Result<CompiledEnvelope, ClientError> {
        match self.request(&Request::Compile(envelope))? {
            Response::Compiled(compiled) => Ok(*compiled),
            Response::Busy => Err(ClientError::Busy),
            Response::ShuttingDown => Err(ClientError::ShuttingDown),
            Response::Error(error) => Err(ClientError::Service(error)),
            Response::Malformed { detail } => Err(ClientError::Rejected(detail)),
            other => Err(unexpected(other)),
        }
    }

    /// Scrapes the server's live metrics: pipeline stage timings, queue
    /// and coalescing counters, wire-level frame statistics — everything
    /// the server's session registry holds, as one consistent snapshot.
    /// Never subject to compile admission, so it works against a
    /// saturated server. Idempotent: a dropped connection is re-dialed
    /// and the scrape retried once before the error surfaces.
    ///
    /// # Errors
    ///
    /// Returns a [`ClientError`] if the transport fails or the server
    /// answers with anything but a stats snapshot.
    pub fn stats(&mut self) -> Result<MetricsSnapshot, ClientError> {
        match self.request_idempotent(&Request::Stats)? {
            Response::Stats(snapshot) => Ok(snapshot),
            other => Err(unexpected(other)),
        }
    }

    /// Asks the server to shut down gracefully (drain, then exit).
    ///
    /// # Errors
    ///
    /// Returns a [`ClientError`] if the transport fails or the server
    /// answers with anything but the shutdown acknowledgement.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected(other)),
        }
    }
}

/// Dials the resolved address list with `TCP_NODELAY`, the way every
/// connection (first or re-dial) is opened.
fn dial(addrs: &[SocketAddr]) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addrs)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

fn unexpected(response: Response) -> ClientError {
    ClientError::Unexpected(match response {
        Response::Pong => "pong",
        Response::Compiled(_) => "compiled plan",
        Response::Busy => "busy",
        Response::Error(_) => "service error",
        Response::ShuttingDown => "shutdown acknowledgement",
        Response::Malformed { .. } => "malformed-frame report",
        Response::Stats(_) => "stats snapshot",
    })
}
