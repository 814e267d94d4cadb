//! The request/response envelopes carried by the wire frames.
//!
//! A [`Request`] frame carries everything a `zz_service::CompileRequest`
//! needs — the circuit, the `CompileOptions` in their own encoding, a
//! label and an optional evaluation seed list — and a [`Response`] frame
//! carries the compiled plan plus the cache/latency metadata of the
//! service response, or the `zz_service::Error` itself, in its own
//! encoding. Both start with [`PROTOCOL_VERSION`], so the envelope
//! schema can evolve independently of the byte codec
//! (`zz_persist::SCHEMA_VERSION` stamps the container) and of the
//! scheduler/pulse enums (which encode as open-ended tags — a new
//! `SchedulerPass` variant ships without a protocol bump).

use std::sync::Arc;

use zz_circuit::Circuit;
use zz_core::{CompileOptions, Compiled};
use zz_obs::{saturating_micros, MetricsSnapshot, RequestId};
use zz_persist::{Decode, DecodeError, Decoder, Encode, Encoder};
use zz_service::{CompileRequest, CompileResponse, DiskStatus, Error, EvalSpec};

/// Version stamp of the envelope schema — the *meaning* of the fields
/// below. Bump when fields are added, removed or reinterpreted; the
/// decoder rejects other versions with a typed error, so old clients
/// fail fast instead of misreading. (New request/response *variants*
/// ride the open tag space without a bump — the `Stats` pair did — but
/// v2 also added [`CompiledEnvelope::request_id`], a field change.)
///
/// History: v1 — initial protocol; v2 — `CompiledEnvelope` gained
/// `request_id`, and the `Stats` request/response pair was added. Within
/// v2, error tag 2 (a calibration error nothing constructed) is retired
/// and never reused; every other error encodes as before.
pub const PROTOCOL_VERSION: u32 = 2;

fn check_protocol(r: &mut Decoder<'_>) -> Result<(), DecodeError> {
    let found = r.u32()?;
    if found != PROTOCOL_VERSION {
        return Err(DecodeError::Invalid("protocol version"));
    }
    Ok(())
}

/// One compile job as it crosses the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct CompileEnvelope {
    /// The logical circuit to compile.
    pub circuit: Circuit,
    /// The full option set (method, scheduler, α, k, requirement).
    pub options: CompileOptions,
    /// Label echoed on the response and attached to any error.
    pub label: String,
    /// When set, the server also evaluates fidelity, averaging the
    /// target's noise over these crosstalk seeds. (Decoherence is not
    /// part of protocol v1.)
    pub eval_seeds: Option<Vec<u64>>,
}

impl CompileEnvelope {
    /// An envelope with default options and the figure-style label.
    pub fn new(circuit: Circuit) -> Self {
        let options = CompileOptions::default();
        CompileEnvelope {
            circuit,
            label: options.default_label(),
            options,
            eval_seeds: None,
        }
    }

    /// Replaces the option set.
    pub fn with_options(mut self, options: CompileOptions) -> Self {
        self.options = options;
        self
    }

    /// Overrides the label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Requests fidelity evaluation over the given crosstalk seeds.
    pub fn with_eval_seeds(mut self, seeds: Vec<u64>) -> Self {
        self.eval_seeds = Some(seeds);
        self
    }

    /// Converts into the service-layer request the session executes.
    /// Wire requests never carry the per-pass trace (it is not part of
    /// the protocol), which also keeps their coalescing keys uniform.
    pub fn into_compile_request(self) -> CompileRequest {
        let mut request = CompileRequest::shared(Arc::new(self.circuit))
            .with_options(self.options)
            .with_label(self.label)
            .without_trace();
        if let Some(seeds) = self.eval_seeds {
            request = request.with_eval(EvalSpec::paper_default().with_seeds(seeds));
        }
        request
    }
}

impl Encode for CompileEnvelope {
    fn encode(&self, out: &mut Encoder) {
        self.circuit.encode(out);
        self.options.encode(out);
        out.str(&self.label);
        self.eval_seeds.encode(out);
    }
}

impl Decode for CompileEnvelope {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(CompileEnvelope {
            circuit: Circuit::decode(r)?,
            options: CompileOptions::decode(r)?,
            label: r.str()?,
            eval_seeds: Decode::decode(r)?,
        })
    }
}

/// One client→server message.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Compile (and optionally evaluate) one circuit.
    Compile(CompileEnvelope),
    /// Ask the server to shut down gracefully: stop accepting, drain
    /// in-flight jobs, answer buffered requests, then exit.
    Shutdown,
    /// Scrape the server's live metrics registry; answered with
    /// [`Response::Stats`]. Never subject to compile admission — a
    /// saturated server still answers its monitoring.
    Stats,
}

impl Encode for Request {
    fn encode(&self, out: &mut Encoder) {
        out.u32(PROTOCOL_VERSION);
        match self {
            Request::Ping => out.u8(0),
            Request::Compile(envelope) => {
                out.u8(1);
                envelope.encode(out);
            }
            Request::Shutdown => out.u8(2),
            Request::Stats => out.u8(3),
        }
    }
}

impl Decode for Request {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        check_protocol(r)?;
        Ok(match r.u8()? {
            0 => Request::Ping,
            1 => Request::Compile(CompileEnvelope::decode(r)?),
            2 => Request::Shutdown,
            3 => Request::Stats,
            _ => return Err(DecodeError::Invalid("request tag")),
        })
    }
}

/// A successful compile as it crosses the wire: the service response
/// minus the (unserialized) per-pass trace.
#[derive(Clone, Debug, PartialEq)]
pub struct CompiledEnvelope {
    /// The id the server's session minted for this execution — quote it
    /// to correlate with the server's event log and metrics, or to join
    /// a client-side span onto the server-side trace. Coalesced requests
    /// report their leader's id.
    pub request_id: RequestId,
    /// The label the job ran under (a coalesced request reports its
    /// leader's label — see `Session::submit_shared`).
    pub label: String,
    /// The compiled plan, bit-identical to an in-process compile.
    pub compiled: Compiled,
    /// Whether routing was served from the session memo or disk.
    pub route_cache_hit: bool,
    /// Disk-store disposition of the whole plan.
    pub disk: DiskStatus,
    /// Server-side compile (and eval) wall time, µs.
    pub compile_micros: u64,
    /// Server-side queue wait before a worker picked the job up, µs.
    pub queue_micros: u64,
    /// Evaluated fidelity, when the request carried eval seeds.
    pub fidelity: Option<f64>,
}

impl CompiledEnvelope {
    /// Wraps a service response for the wire (the plan moves, uncopied).
    pub fn from_response(response: CompileResponse) -> Self {
        CompiledEnvelope {
            request_id: response.request_id,
            label: response.label,
            compiled: response.compiled,
            route_cache_hit: response.route_cache_hit,
            disk: response.disk,
            // Saturate, never `as`-truncate: a pathological wait must
            // read as "huge", not wrap to a small number.
            compile_micros: saturating_micros(response.compile_time),
            queue_micros: saturating_micros(response.queue_wait),
            fidelity: response.fidelity,
        }
    }
}

fn disk_tag(disk: DiskStatus) -> u8 {
    match disk {
        DiskStatus::NotConsulted => 0,
        DiskStatus::Hit => 1,
        DiskStatus::Miss => 2,
    }
}

fn disk_from_tag(tag: u8) -> Result<DiskStatus, DecodeError> {
    Ok(match tag {
        0 => DiskStatus::NotConsulted,
        1 => DiskStatus::Hit,
        2 => DiskStatus::Miss,
        _ => return Err(DecodeError::Invalid("disk status tag")),
    })
}

impl Encode for CompiledEnvelope {
    fn encode(&self, out: &mut Encoder) {
        self.request_id.encode(out);
        out.str(&self.label);
        self.compiled.encode(out);
        out.bool(self.route_cache_hit);
        out.u8(disk_tag(self.disk));
        out.u64(self.compile_micros);
        out.u64(self.queue_micros);
        self.fidelity.encode(out);
    }
}

impl Decode for CompiledEnvelope {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(CompiledEnvelope {
            request_id: RequestId::decode(r)?,
            label: r.str()?,
            compiled: Compiled::decode(r)?,
            route_cache_hit: r.bool()?,
            disk: disk_from_tag(r.u8()?)?,
            compile_micros: r.u64()?,
            queue_micros: r.u64()?,
            fidelity: Decode::decode(r)?,
        })
    }
}

/// One server→client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// The compile succeeded. (Boxed: the envelope dwarfs every other
    /// variant.)
    Compiled(Box<CompiledEnvelope>),
    /// The admission queue is full — backpressure, not failure. Retry
    /// after a backoff; nothing was enqueued.
    Busy,
    /// The compile failed with a typed service error.
    Error(Error),
    /// Answer to [`Request::Shutdown`]: the server is draining.
    ShuttingDown,
    /// The server could not decode the client's frame (the connection
    /// closes after this reply).
    Malformed {
        /// What the frame reader reported.
        detail: String,
    },
    /// Answer to [`Request::Stats`]: a consistent snapshot of the
    /// server's metrics registry at scrape time.
    Stats(MetricsSnapshot),
}

impl Encode for Response {
    fn encode(&self, out: &mut Encoder) {
        out.u32(PROTOCOL_VERSION);
        match self {
            Response::Pong => out.u8(0),
            Response::Compiled(envelope) => {
                out.u8(1);
                envelope.encode(out);
            }
            Response::Busy => out.u8(2),
            Response::Error(error) => {
                out.u8(3);
                error.encode(out);
            }
            Response::ShuttingDown => out.u8(4),
            Response::Malformed { detail } => {
                out.u8(5);
                out.str(detail);
            }
            Response::Stats(snapshot) => {
                out.u8(6);
                snapshot.encode(out);
            }
        }
    }
}

impl Decode for Response {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        check_protocol(r)?;
        Ok(match r.u8()? {
            0 => Response::Pong,
            1 => Response::Compiled(Box::new(CompiledEnvelope::decode(r)?)),
            2 => Response::Busy,
            3 => Response::Error(Error::decode(r)?),
            4 => Response::ShuttingDown,
            5 => Response::Malformed { detail: r.str()? },
            6 => Response::Stats(MetricsSnapshot::decode(r)?),
            _ => return Err(DecodeError::Invalid("response tag")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zz_circuit::Gate;
    use zz_core::CoOptError;
    use zz_persist::roundtrip;
    use zz_service::{PulseMethod, SchedulerKind};

    fn envelope() -> CompileEnvelope {
        let mut circuit = Circuit::new(2);
        circuit.push(Gate::H, &[0]).push(Gate::Cnot, &[0, 1]);
        CompileEnvelope::new(circuit)
            .with_options(
                CompileOptions::new(PulseMethod::Dcg, SchedulerKind::ParSched).with_alpha(0.25),
            )
            .with_label("bell")
            .with_eval_seeds(vec![11, 23])
    }

    #[test]
    fn requests_round_trip() {
        for request in [
            Request::Ping,
            Request::Compile(envelope()),
            Request::Shutdown,
            Request::Stats,
        ] {
            assert_eq!(roundtrip(&request).expect("round trips"), request);
        }
    }

    #[test]
    fn stats_responses_round_trip() {
        let registry = zz_obs::Registry::new();
        registry.counter("net.frames").add(3);
        registry.gauge("net.inflight").set(-1);
        registry.histogram("session.queue.wait_us").observe(42);
        let response = Response::Stats(registry.snapshot());
        assert_eq!(roundtrip(&response).expect("round trips"), response);
    }

    #[test]
    fn every_service_error_variant_round_trips_through_the_wire() {
        let errors = [
            Error::Validate {
                job: "j".into(),
                source: CoOptError::CircuitTooLarge {
                    needed: 9,
                    available: 4,
                },
            },
            Error::Route {
                job: "j".into(),
                detail: "d".into(),
            },
            Error::Persist { detail: "d".into() },
            Error::Eval {
                job: "j".into(),
                detail: "d".into(),
            },
            Error::Worker {
                job: "j".into(),
                detail: "d".into(),
            },
            Error::Validate {
                job: "j".into(),
                source: CoOptError::NonFiniteAngle { gate: 3 },
            },
            Error::Validate {
                job: "j".into(),
                source: CoOptError::InvalidOption {
                    field: "alpha".into(),
                },
            },
        ];
        for error in errors {
            let response = Response::Error(error);
            assert_eq!(roundtrip(&response).expect("round trips"), response);
        }
        // A Validate wrapping a routing failure goes out as the Route
        // error `from_compile` makes of the same cause.
        let unreachable = CoOptError::RouteUnreachable { from: 3, to: 7 };
        let wrapped = Response::Error(Error::Validate {
            job: "j".into(),
            source: unreachable.clone(),
        });
        assert_eq!(
            roundtrip(&wrapped).expect("round trips"),
            Response::Error(Error::from_compile("j", unreachable))
        );
    }

    #[test]
    fn protocol_version_mismatch_is_typed() {
        let mut enc = Encoder::new();
        Request::Ping.encode(&mut enc);
        let mut bytes = enc.finish();
        bytes[0..4].copy_from_slice(&(PROTOCOL_VERSION + 1).to_le_bytes());
        let mut dec = Decoder::new(&bytes);
        assert_eq!(
            Request::decode(&mut dec).unwrap_err(),
            DecodeError::Invalid("protocol version")
        );
    }

    #[test]
    fn envelope_becomes_an_equivalent_service_request() {
        let request = envelope().into_compile_request();
        assert_eq!(request.label, "bell");
        assert_eq!(request.options.alpha, Some(0.25));
        assert!(!request.trace, "wire requests never carry the trace");
        assert_eq!(
            request.eval.expect("seeds were set").crosstalk_seeds,
            vec![11, 23]
        );
    }
}
