//! `zz_net`: a framed TCP front door over the [`zz_service`] session.
//!
//! The service layer gave the compiler one long-lived front door — a
//! [`Session`](zz_service::Session) owning the worker pool and every
//! cache. This crate puts that front door on a socket, so many
//! processes (calibration daemons, figure runners, notebook kernels)
//! can share one warm session instead of each paying cold routing and
//! calibration costs.
//!
//! Three layers, bottom up:
//!
//! - [`frame`] — the wire frame. Every message is one `zz_persist`
//!   artifact container (magic, schema version, kind tag, length,
//!   FNV-1a checksum, payload), so the damage-handling guarantees of
//!   the on-disk store carry over to the wire: truncation, corruption,
//!   foreign bytes and adversarial length prefixes all decode to a
//!   typed [`FrameError`], never a panic or an unbounded allocation.
//! - [`envelope`] — what the frames carry: [`Request`] / [`Response`],
//!   stamped with [`PROTOCOL_VERSION`]. A request becomes the service
//!   layer's `CompileRequest` and a response wraps its
//!   `CompileResponse`; the request's `CompileOptions` and a failure's
//!   `zz_service::Error` cross in their own encodings, with no wire
//!   twin.
//! - [`server`] / [`client`] — a blocking [`Server`] fanning N
//!   connections into one shared session (bounded admission answers
//!   [`Response::Busy`] under load; identical concurrent compiles
//!   coalesce onto one job; shutdown drains instead of dropping) and
//!   the matching blocking [`Client`].
//!
//! ```no_run
//! use std::sync::Arc;
//! use zz_circuit::bench::{generate, BenchmarkKind};
//! use zz_net::{Client, CompileEnvelope, Server};
//! use zz_service::{Session, Target};
//!
//! let server = Server::bind("127.0.0.1:0", Arc::new(Session::new(Target::paper_default())))?;
//! let addr = server.local_addr()?;
//! let control = server.control();
//! let serving = std::thread::spawn(move || server.serve());
//!
//! let mut client = Client::connect(addr)?;
//! let circuit = generate(BenchmarkKind::Qaoa, 4, 0);
//! let compiled = client.compile(CompileEnvelope::new(circuit))?;
//! println!("{} layers", compiled.compiled.plan.layer_count());
//!
//! control.shutdown();
//! serving.join().expect("acceptor does not panic")?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod envelope;
pub mod frame;
pub mod server;

pub use client::{Client, ClientError};
pub use envelope::{CompileEnvelope, CompiledEnvelope, Request, Response, PROTOCOL_VERSION};
pub use frame::{read_frame, write_frame, FrameError, FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD};
pub use server::{Server, ServerConfig, ServerControl};

// What `Client::stats` returns and `CompiledEnvelope::request_id`
// carries, re-exported so wire callers need no direct `zz_obs` import.
pub use zz_obs::{MetricsSnapshot, RequestId};
