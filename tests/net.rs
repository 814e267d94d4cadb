//! Wire-protocol integration tests over real TCP sockets: adversarial
//! frames, request coalescing across client threads, backpressure, and
//! graceful shutdown that drains instead of dropping.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use zz_circuit::{bench, Circuit, Gate};
use zz_core::calib::CalibCache;
use zz_core::{CoOptError, CompileOptions};
use zz_net::{
    Client, ClientError, CompileEnvelope, Request, Response, Server, ServerConfig, ServerControl,
};
use zz_persist::{encode_artifact, ArtifactKind};
use zz_sched::Requirement;
use zz_service::{Session, Target};
use zz_topology::Topology;

/// One running server over a dedicated session (private calibration
/// cache, so calibration counters are isolated from other tests in this
/// process).
struct Fixture {
    addr: SocketAddr,
    control: ServerControl,
    session: Arc<Session>,
    serving: JoinHandle<std::io::Result<()>>,
}

impl Fixture {
    fn start(config: ServerConfig) -> Self {
        let target = Target::builder()
            .topology(Topology::grid(2, 2))
            .calib_cache(Arc::new(CalibCache::new()))
            .build()
            .expect("no store configured");
        let session = Arc::new(Session::with_threads(target, 2));
        let server =
            Server::bind_with("127.0.0.1:0", Arc::clone(&session), config).expect("ephemeral port");
        let addr = server.local_addr().expect("bound socket has an address");
        let control = server.control();
        let serving = std::thread::spawn(move || server.serve());
        Fixture {
            addr,
            control,
            session,
            serving,
        }
    }

    fn stop(self) {
        self.control.shutdown();
        self.serving
            .join()
            .expect("acceptor does not panic")
            .expect("serve exits cleanly");
    }
}

fn fast_config() -> ServerConfig {
    ServerConfig {
        poll: Duration::from_millis(5),
        ..ServerConfig::default()
    }
}

fn bell() -> Circuit {
    let mut c = Circuit::new(2);
    c.push(Gate::H, &[0]).push(Gate::Cnot, &[0, 1]);
    c
}

/// Reads whatever the server sends until it closes the connection.
fn read_to_eof(stream: &mut TcpStream) -> Vec<u8> {
    let mut bytes = Vec::new();
    let _ = stream.read_to_end(&mut bytes);
    bytes
}

// -------------------------------------------------------------- happy path

#[test]
fn ping_compile_and_shutdown_round_trip() {
    let fixture = Fixture::start(fast_config());
    let mut client = Client::connect(fixture.addr).expect("connects");
    client.ping().expect("pong");

    let compiled = client
        .compile(CompileEnvelope::new(bell()).with_label("bell"))
        .expect("compiles");
    assert_eq!(compiled.label, "bell");
    assert!(compiled.compiled.plan.layer_count() > 0);
    assert!(compiled.fidelity.is_none(), "no eval was requested");

    // Remote result ≡ in-process result, bit for bit.
    let local = fixture
        .session
        .compile(&zz_service::CompileRequest::new(bell()))
        .expect("compiles");
    assert_eq!(compiled.compiled, local.compiled);

    let mut stopper = Client::connect(fixture.addr).expect("connects");
    stopper.shutdown_server().expect("acknowledged");
    fixture
        .serving
        .join()
        .expect("acceptor does not panic")
        .expect("serve exits cleanly");
}

#[test]
fn eval_requests_carry_fidelity_back() {
    let fixture = Fixture::start(fast_config());
    let mut client = Client::connect(fixture.addr).expect("connects");
    let compiled = client
        .compile(CompileEnvelope::new(bell()).with_eval_seeds(vec![11, 23]))
        .expect("compiles");
    let fidelity = compiled.fidelity.expect("eval seeds were sent");
    assert!((0.0..=1.0).contains(&fidelity), "fidelity {fidelity}");
    fixture.stop();
}

#[test]
fn compile_errors_cross_the_wire_typed() {
    let fixture = Fixture::start(fast_config());
    let mut client = Client::connect(fixture.addr).expect("connects");
    // 9 qubits on the 2×2 target device.
    let too_big = CompileEnvelope::new(Circuit::new(9)).with_label("too-big");
    match client.compile(too_big) {
        Err(ClientError::Service(zz_service::Error::Validate { job, .. })) => {
            assert_eq!(job, "too-big")
        }
        other => panic!("expected a typed Validate error, got {other:?}"),
    }
    // The connection survives a failed compile.
    client.ping().expect("still serving");
    fixture.stop();
}

/// A NaN or infinite gate angle comes back as the typed validation error
/// naming the gate; a finite one still compiles and evaluates.
#[test]
fn non_finite_angles_cross_the_wire_typed() {
    let fixture = Fixture::start(fast_config());
    let mut client = Client::connect(fixture.addr).expect("connects");
    // `H q0; Rx(θ) q1; CX q0,q2; Rz(θ) q3` on the 2×2 target device.
    let angled = |theta: f64| {
        let mut c = Circuit::new(4);
        c.push(Gate::H, &[0])
            .push(Gate::Rx(theta), &[1])
            .push(Gate::Cnot, &[0, 2])
            .push(Gate::Rz(theta), &[3]);
        CompileEnvelope::new(c)
            .with_label("angled")
            .with_eval_seeds(vec![11])
    };
    for theta in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        match client.compile(angled(theta)) {
            Err(ClientError::Service(zz_service::Error::Validate { job, source })) => {
                assert_eq!(job, "angled");
                assert_eq!(source, CoOptError::NonFiniteAngle { gate: 1 });
            }
            other => panic!("θ={theta}: expected a typed Validate error, got {other:?}"),
        }
    }
    let finite = client.compile(angled(0.3)).expect("finite angles compile");
    let fidelity = finite.fidelity.expect("eval seeds were sent");
    assert!((0.0..=1.0).contains(&fidelity), "fidelity {fidelity}");
    fixture.stop();
}

/// An out-of-range α, k or `R` comes back as the typed validation error
/// naming the option.
#[test]
fn out_of_range_options_cross_the_wire_typed() {
    let fixture = Fixture::start(fast_config());
    let mut client = Client::connect(fixture.addr).expect("connects");
    let request = |options| {
        CompileEnvelope::new(bell())
            .with_options(options)
            .with_label("knobs")
    };
    let unmeetable = Requirement {
        nq_limit: 0,
        nc_limit: 3,
    };
    let defaults = CompileOptions::default();
    for (options, field) in [
        (defaults.with_alpha(f64::NAN), "alpha"),
        (defaults.with_alpha(f64::NEG_INFINITY), "alpha"),
        (defaults.with_k(0), "k"),
        (defaults.with_requirement(unmeetable), "nq_limit"),
    ] {
        match client.compile(request(options)) {
            Err(ClientError::Service(zz_service::Error::Validate { job, source })) => {
                assert_eq!(job, "knobs");
                assert_eq!(
                    source,
                    CoOptError::InvalidOption {
                        field: field.to_string()
                    }
                );
            }
            other => panic!("{field}: expected a typed Validate error, got {other:?}"),
        }
    }
    client
        .compile(request(defaults.with_alpha(0.0)))
        .expect("α = 0 compiles");
    fixture.stop();
}

// -------------------------------------------------------- adversarial frames

#[test]
fn garbage_bytes_get_a_malformed_reply_and_the_server_survives() {
    let fixture = Fixture::start(fast_config());

    let mut stream = TcpStream::connect(fixture.addr).expect("connects");
    // Exactly one header's worth of garbage, so the server consumes
    // everything before replying (no unread bytes → clean close, no RST).
    stream.write_all(&[0xde; 28]).expect("writes");
    let reply = read_to_eof(&mut stream);
    assert!(!reply.is_empty(), "server must answer before closing");
    drop(stream);

    // A fresh, well-behaved client is still served.
    let mut client = Client::connect(fixture.addr).expect("connects");
    client.ping().expect("server survived the garbage");
    fixture.stop();
}

#[test]
fn corrupted_frames_are_answered_typed_then_disconnected() {
    let good = encode_artifact(ArtifactKind::NetRequest, &Request::Ping);

    // Header-rejected frames are sent as the bare 28-byte header so the
    // server consumes every byte before replying (clean close, no RST);
    // the checksum case needs the whole frame, which is fully read too.
    let mut checksum_flip = good.clone();
    *checksum_flip.last_mut().expect("non-empty") ^= 1;
    let mut magic_flip = good[..28].to_vec();
    magic_flip[0] ^= 0xff;
    let mut oversized = good[..28].to_vec();
    oversized[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
    let wrong_kind = encode_artifact(ArtifactKind::NetResponse, &Response::Pong)[..28].to_vec();

    let cases: [(&str, &[u8], &str); 4] = [
        ("checksum flip", &checksum_flip, "checksum"),
        ("magic flip", &magic_flip, "magic"),
        ("oversized length prefix", &oversized, "payload bytes"),
        ("response frame as request", &wrong_kind, "kind"),
    ];

    for (name, bytes, needle) in cases {
        let fixture = Fixture::start(fast_config());
        let mut stream = TcpStream::connect(fixture.addr).expect("connects");
        stream.write_all(bytes).expect("writes");
        stream.flush().expect("flushes");

        // The reply is a well-formed Malformed response frame.
        let response: Response =
            zz_net::read_frame(&mut stream, ArtifactKind::NetResponse).expect("typed reply");
        match response {
            Response::Malformed { detail } => assert!(
                detail.contains(needle),
                "{name}: detail '{detail}' must mention '{needle}'"
            ),
            other => panic!("{name}: expected Malformed, got {other:?}"),
        }

        // ... after which the server closes this connection but keeps
        // serving new ones.
        assert!(read_to_eof(&mut stream).is_empty(), "{name}: must close");
        let mut client = Client::connect(fixture.addr).expect("connects");
        client.ping().expect("server survived");
        fixture.stop();
    }
}

#[test]
fn mid_frame_disconnect_leaks_nothing() {
    let fixture = Fixture::start(fast_config());
    let good = encode_artifact(
        ArtifactKind::NetRequest,
        &Request::Compile(CompileEnvelope::new(bell())),
    );
    // Kill the connection at several points inside the frame.
    for cut in [1, 10, 27, 28, good.len() - 1] {
        let mut stream = TcpStream::connect(fixture.addr).expect("connects");
        stream.write_all(&good[..cut]).expect("writes");
        drop(stream); // mid-frame disconnect
    }
    // Every handler must have exited without panicking or wedging the
    // acceptor: a fresh client still gets served end to end.
    let mut client = Client::connect(fixture.addr).expect("connects");
    client
        .compile(CompileEnvelope::new(bell()))
        .expect("server survived five mid-frame disconnects");
    fixture.stop();
}

// ------------------------------------------------------- the Stats endpoint

/// One scrape of a live server reflects exactly the traffic it served:
/// request ids on every answer, per-layer counters matching the known
/// request/adversarial-frame sequence, and wall-time histograms with one
/// sample per compile.
#[test]
fn stats_scrape_reflects_known_traffic() {
    let fixture = Fixture::start(fast_config());
    let mut client = Client::connect(fixture.addr).expect("connects");
    client.ping().expect("pong");

    // Three sequential compiles: cold bell, warm bell, cold QFT.
    let first = client
        .compile(CompileEnvelope::new(bell()))
        .expect("compiles");
    let second = client
        .compile(CompileEnvelope::new(bell()))
        .expect("compiles");
    let third = client
        .compile(CompileEnvelope::new(bench::generate(
            bench::BenchmarkKind::Qft,
            4,
            7,
        )))
        .expect("compiles");

    // Every answer names its server-side execution, and sequential
    // requests never share one.
    for compiled in [&first, &second, &third] {
        assert!(compiled.request_id.as_u64() != 0, "request id present");
    }
    assert_ne!(first.request_id, second.request_id);
    assert_ne!(second.request_id, third.request_id);

    // Two adversarial connections, each killed by one garbage header.
    for _ in 0..2 {
        let mut stream = TcpStream::connect(fixture.addr).expect("connects");
        stream.write_all(&[0xde; 28]).expect("writes");
        read_to_eof(&mut stream);
    }

    let stats = Client::connect(fixture.addr)
        .expect("connects")
        .stats()
        .expect("live server answers Stats");

    // Wire layer: ping + 3 compiles + this stats request = 5 well-formed
    // frames; the 2 garbage headers count as malformed, not frames; the
    // compile client + 2 adversaries + the scraper = 4 connections.
    assert_eq!(stats.counter("net.frames"), Some(5));
    assert_eq!(stats.counter("net.malformed"), Some(2));
    assert_eq!(stats.counter("net.connections"), Some(4));
    assert_eq!(stats.counter("net.admitted"), Some(3));
    assert_eq!(
        stats.counter("net.busy"),
        Some(0),
        "no busy rejection happened"
    );
    assert_eq!(
        stats.gauge("net.inflight"),
        Some(0),
        "all compiles answered"
    );

    // Session layer: three submissions, all leaders (sequential traffic
    // cannot coalesce), no errors, one wall-time sample per compile.
    assert_eq!(stats.counter("session.requests"), Some(3));
    assert_eq!(stats.counter("session.coalesce.leader"), Some(3));
    assert_eq!(stats.counter("session.coalesce.follower"), Some(0));
    assert_eq!(stats.counter("session.errors"), Some(0));
    let wall = stats
        .histogram("session.compile.wall_us")
        .expect("compiles were timed");
    assert_eq!(wall.count, 3);

    // Pipeline layer: one full pass-pipeline execution per compile.
    assert_eq!(stats.counter("pipeline.runs"), Some(3));

    fixture.stop();
}

// ---------------------------------------------------- coalescing over TCP

#[test]
fn identical_concurrent_compiles_share_work_and_answers() {
    const M: usize = 8;
    let fixture = Fixture::start(fast_config());

    let addr = fixture.addr;
    let compiled: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..M)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connects");
                    client
                        .compile(CompileEnvelope::new(bench::generate(
                            bench::BenchmarkKind::Qaoa,
                            4,
                            7,
                        )))
                        .expect("compiles")
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("no panic"))
            .collect()
    });

    // All M answers are bit-identical.
    assert_eq!(compiled.len(), M);
    for other in &compiled[1..] {
        assert_eq!(other.compiled, compiled[0].compiled);
    }

    // Exactly one execution of the expensive stages: one calibration
    // measurement, one routed shape. Every response beyond the first
    // either coalesced onto an in-flight job or was served by the
    // routing memo — whichever way the race resolves, only the first
    // execution can be a miss (followers adopt their leader's flag, so
    // at most 1 + coalesced misses are ever reported).
    assert_eq!(
        fixture.session.target().calib().calibration_runs(),
        1,
        "one calibration for M compiles"
    );
    assert_eq!(fixture.session.memoized_shapes(), 1, "one routed shape");
    let stats = fixture.session.metrics().snapshot();
    let coalesced = stats.counter("session.coalesce.follower").expect("counted") as usize;
    let route_misses = compiled.iter().filter(|c| !c.route_cache_hit).count();
    assert!(
        route_misses >= 1 && route_misses <= 1 + coalesced,
        "route misses {route_misses} with {coalesced} coalesced"
    );

    // The registry tells the same story: M submissions split into
    // leaders + followers, and every follower adopted its leader's
    // request id (an id names one pipeline execution, so the answers
    // carry exactly M − coalesced distinct ids).
    assert_eq!(stats.counter("session.requests"), Some(M as u64));
    assert_eq!(stats.counter("session.errors"), Some(0));
    assert_eq!(
        stats.counter("session.coalesce.leader"),
        Some((M - coalesced) as u64)
    );
    let mut ids: Vec<u64> = compiled.iter().map(|c| c.request_id.as_u64()).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), M - coalesced, "followers share the leader's id");
    fixture.stop();
}

// ------------------------------------------------------------- backpressure

#[test]
fn admission_beyond_the_bound_is_busy_not_a_hang() {
    let fixture = Fixture::start(ServerConfig {
        max_inflight: 0, // every compile overflows the queue
        poll: Duration::from_millis(5),
    });
    let mut client = Client::connect(fixture.addr).expect("connects");

    let t0 = Instant::now();
    match client.compile(CompileEnvelope::new(bell())) {
        Err(ClientError::Busy) => {}
        other => panic!("expected Busy, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "backpressure must answer promptly, not hang"
    );
    assert_eq!(fixture.control.busy_rejections(), 1);
    assert_eq!(fixture.control.admitted(), 0, "nothing was enqueued");

    // Pings are not subject to compile admission — and neither are
    // stats scrapes, so the rejection is observable on the saturated
    // server itself.
    client.ping().expect("control traffic still flows");
    let stats = client.stats().expect("a saturated server still scrapes");
    assert_eq!(stats.counter("net.busy"), Some(1));
    assert_eq!(stats.counter("net.admitted"), Some(0));
    assert_eq!(stats.counter("session.requests"), Some(0), "never enqueued");
    fixture.stop();
}

// ------------------------------------------------------------ graceful drain

#[test]
fn shutdown_drains_inflight_jobs_without_dropping_any() {
    const M: usize = 4;
    let fixture = Fixture::start(fast_config());

    let addr = fixture.addr;
    let control = fixture.control.clone();
    let answers: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..M)
            .map(|i| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connects");
                    client
                        .compile(
                            CompileEnvelope::new(bench::generate(
                                bench::BenchmarkKind::Ising,
                                4,
                                i as u64, // distinct circuits: no coalescing
                            ))
                            .with_label(format!("job-{i}")),
                        )
                        .expect("admitted jobs are answered, not dropped")
                })
            })
            .collect();

        // Wait until every request is past the admission gate (i.e. in
        // flight), then pull the plug. (Bounded, so a failing worker
        // turns into an assertion instead of a hung test.)
        let deadline = Instant::now() + Duration::from_secs(60);
        while control.admitted() < M && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(control.admitted(), M, "all jobs must admit within 60s");
        control.shutdown();

        workers
            .into_iter()
            .map(|w| w.join().expect("no panic"))
            .collect()
    });

    // serve() returns only after the drain: all M were answered.
    fixture
        .serving
        .join()
        .expect("acceptor does not panic")
        .expect("serve exits cleanly");
    let mut labels: Vec<String> = answers.into_iter().map(|a| a.label).collect();
    labels.sort();
    assert_eq!(labels, ["job-0", "job-1", "job-2", "job-3"]);

    // New connections are refused once the listener is down.
    assert!(
        Client::connect(addr).is_err() || {
            // The OS may still accept into the (closed) backlog; a
            // request on such a socket must fail rather than hang.
            let mut client = Client::connect(addr).expect("backlog race");
            client.ping().is_err()
        },
        "a drained server must not serve new work"
    );
}

#[test]
fn compiles_after_shutdown_are_answered_shutting_down() {
    let fixture = Fixture::start(fast_config());
    let mut client = Client::connect(fixture.addr).expect("connects");
    client.ping().expect("pong");

    fixture.control.shutdown();
    // The handler still answers frames already in flight on open
    // connections — but refuses to start new work.
    match client.compile(CompileEnvelope::new(bell())) {
        Err(ClientError::ShuttingDown) | Err(ClientError::Frame(_)) => {}
        other => panic!("expected ShuttingDown (or a closed socket), got {other:?}"),
    }
    fixture
        .serving
        .join()
        .expect("acceptor does not panic")
        .expect("serve exits cleanly");
}

// ------------------------------------------------------------ reconnect

/// Restarts a server on a specific (just-vacated) address — the second
/// half of every reconnect scenario.
fn restart_at(addr: SocketAddr) -> (ServerControl, JoinHandle<std::io::Result<()>>) {
    let target = Target::builder()
        .topology(Topology::grid(2, 2))
        .calib_cache(Arc::new(CalibCache::new()))
        .build()
        .expect("no store configured");
    let session = Arc::new(Session::with_threads(target, 2));
    let server = Server::bind_with(addr, session, fast_config())
        .expect("the vacated port rebinds (SO_REUSEADDR)");
    let control = server.control();
    let serving = std::thread::spawn(move || server.serve());
    (control, serving)
}

#[test]
fn idempotent_requests_survive_a_server_restart() {
    let fixture = Fixture::start(fast_config());
    let addr = fixture.addr;
    let mut client = Client::connect(addr).expect("connects");
    client.ping().expect("pong");

    // Kill the server mid-session: the client's connection is now dead.
    fixture.stop();
    // With nothing listening, even the one re-dial retry must fail —
    // visibly, not by hanging.
    assert!(client.ping().is_err(), "no server to reconnect to");

    // Restart on the same port; the stale client transparently re-dials
    // and retries its idempotent calls.
    let (control, serving) = restart_at(addr);
    client.ping().expect("re-dials and pongs");
    let stats = client.stats().expect("stats over the fresh connection");
    assert!(
        stats.counter("net.connections").unwrap_or(0) >= 1,
        "the scrape reflects the fresh server"
    );

    control.shutdown();
    serving
        .join()
        .expect("acceptor does not panic")
        .expect("serve exits cleanly");
}

#[test]
fn ensure_connected_revives_a_dead_connection() {
    let fixture = Fixture::start(fast_config());
    let addr = fixture.addr;
    let mut client = Client::connect(addr).expect("connects");
    client.ensure_connected().expect("healthy from the start");

    fixture.stop();
    let (control, serving) = restart_at(addr);

    // The old stream is dead; ensure_connected replaces it, and the
    // *non*-idempotent compile path then works without its own retry.
    client
        .ensure_connected()
        .expect("re-dials the restarted server");
    let compiled = client
        .compile(CompileEnvelope::new(bell()).with_label("post-restart"))
        .expect("compiles over the fresh connection");
    assert_eq!(compiled.label, "post-restart");

    control.shutdown();
    serving
        .join()
        .expect("acceptor does not panic")
        .expect("serve exits cleanly");
}

#[test]
fn stats_responses_merge_an_extra_registry() {
    let target = Target::builder()
        .topology(Topology::grid(2, 2))
        .calib_cache(Arc::new(CalibCache::new()))
        .build()
        .expect("no store configured");
    let session = Arc::new(Session::with_threads(target, 2));
    let fleet_registry = Arc::new(zz_service::Registry::new());
    fleet_registry.counter("fleet.dispatch").add(5);
    fleet_registry.gauge("fleet.epoch").set(2);
    let server = Server::bind_with_stats(
        "127.0.0.1:0",
        Arc::clone(&session),
        fast_config(),
        Arc::clone(&fleet_registry),
    )
    .expect("ephemeral port");
    let addr = server.local_addr().expect("bound");
    let control = server.control();
    let serving = std::thread::spawn(move || server.serve());

    let mut client = Client::connect(addr).expect("connects");
    let stats = client.stats().expect("scrapes");
    assert_eq!(stats.counter("fleet.dispatch"), Some(5));
    assert_eq!(stats.gauge("fleet.epoch"), Some(2));
    // The session's own series are still present alongside the extras.
    assert!(stats.counter("net.frames").is_some());

    control.shutdown();
    serving
        .join()
        .expect("acceptor does not panic")
        .expect("serve exits cleanly");
}
