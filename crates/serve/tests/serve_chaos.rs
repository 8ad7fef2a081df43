//! Network chaos suite: the server is driven through real TCP
//! connections while the wire-fault injector truncates frames, corrupts
//! length prefixes, drops connections mid-stream, and delays writes.
//! The contract under fire:
//!
//! 1. the server never panics and never wedges a shard — after the
//!    chaos drive every shard still opens, observes, and predicts;
//! 2. clients make forward progress with plain reconnect-and-retry, and
//!    a session block that completes over the faulty socket predicts
//!    bit for bit what the single-process oracle predicts;
//! 3. a tenant degraded by wire chaos stays contained: an unaffected
//!    tenant driven in-process keeps predictions byte-identical to the
//!    single-process oracle throughout;
//! 4. a slow-loris connection (bytes dribbling in, never a complete
//!    frame) is evicted by the idle deadline instead of pinning its
//!    thread forever.

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pythia_core::event::{EventId, EventRegistry};
use pythia_core::predict::{Prediction, Predictor, PredictorConfig};
use pythia_core::record::{RecordConfig, Recorder};
use pythia_core::resilience::FaultPlan;
use pythia_core::trace::TraceData;
use pythia_serve::{
    Admission, Request, Response, ServeConfig, Server, SessionId, SocketClient, Tenants,
};

fn trace_of(seq: &[u32], repeat: usize) -> TraceData {
    let mut rec = Recorder::new(RecordConfig {
        timestamps: false,
        validate: false,
    });
    for _ in 0..repeat {
        for &e in seq {
            rec.record_at(EventId(e), 0);
        }
    }
    rec.finish(&EventRegistry::new()).unwrap()
}

const ALPHA_SEQ: &[u32] = &[1, 2, 3, 4, 2, 1];
const BETA_SEQ: &[u32] = &[7, 8, 9];

/// All four wire faults at once, frequent enough that every connection
/// sees several before it gets ten frames out.
const CHAOS: &str =
    "wire-corrupt-len=3,wire-truncate=5,wire-disconnect=7,wire-delay=4,wire-delay-us=200";

fn chaos_server(workers: usize) -> Server {
    let tenants = Tenants::from_traces([
        ("alpha".to_string(), trace_of(ALPHA_SEQ, 16)),
        ("beta".to_string(), trace_of(BETA_SEQ, 16)),
    ])
    .unwrap();
    Server::start(
        tenants,
        ServeConfig {
            workers,
            faults: Some(FaultPlan::parse(CHAOS)),
            ..ServeConfig::default()
        },
    )
    .unwrap()
}

fn assert_bit_identical(served: &Prediction, local: &Prediction, what: &str) {
    assert_eq!(
        served.distribution.len(),
        local.distribution.len(),
        "{what}: distribution size diverged"
    );
    for (&(es, ps), &(el, pl)) in served.distribution.iter().zip(&local.distribution) {
        assert_eq!(es, el, "{what}: event order diverged");
        assert_eq!(
            ps.to_bits(),
            pl.to_bits(),
            "{what}: probability bits diverged"
        );
    }
    assert_eq!(
        served.end_probability.to_bits(),
        local.end_probability.to_bits(),
        "{what}: end probability diverged"
    );
}

/// Issues `req` over TCP, reconnecting and retrying on any wire error.
/// Chaos faults the response path, so a retried request may re-execute
/// server-side — callers must only assert liveness, not exactly-once.
fn call_retrying(
    addr: std::net::SocketAddr,
    conn: &mut Option<SocketClient<std::net::TcpStream>>,
    req: &Request,
) -> Response {
    for _ in 0..50 {
        if conn.is_none() {
            match SocketClient::connect_tcp(addr) {
                Ok(c) => *conn = Some(c),
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(2));
                    continue;
                }
            }
        }
        match conn.as_mut().unwrap().call(req) {
            Ok(resp) => return resp,
            Err(_) => *conn = None, // poisoned stream: reconnect
        }
    }
    panic!("no successful call in 50 attempts: {req:?}");
}

/// The headline chaos test: wire faults on every connection, forward
/// progress for the wire clients, bit-identical service for the
/// in-process tenant, and no wedged shard afterwards.
#[test]
fn wire_faults_never_wedge_the_server() {
    let workers = 2;
    let mut server = chaos_server(workers);
    let addr = server.listen_tcp("127.0.0.1:0").unwrap();
    let inproc = server.client();

    // The contained tenant: an in-process alpha session asserted
    // byte-identical against the single-process oracle after every
    // chaotic round below.
    let alpha = trace_of(ALPHA_SEQ, 16);
    let alpha_id = match inproc
        .call(&Request::Open {
            tenant: "alpha".into(),
            durable: false,
        })
        .unwrap()
    {
        Response::Session { id } => id,
        other => panic!("in-process open returned {other:?}"),
    };
    let mut alpha_local = Predictor::from_thread_trace(
        Arc::clone(alpha.thread(0).unwrap()),
        PredictorConfig::default(),
    );
    let mut alpha_pos = 0usize;

    // Wire drive: beta sessions hammered through the faulty transport.
    // Each round is one atomic block — open a session, observe a prefix
    // of beta's stream and predict — whose prediction must equal the
    // single-process oracle's bit for bit. A wire error abandons the
    // block's session and retries the whole block on a fresh connection
    // with a fresh session, so a completed block observed its prefix
    // exactly once. The plan corrupts the third response frame of every
    // connection, so each round after the first loses a response once.
    let beta = trace_of(BETA_SEQ, 16);
    let mut conn: Option<SocketClient<std::net::TcpStream>> = None;
    let mut faulted_blocks = 0u64;
    for round in 0..12 {
        let events: Vec<EventId> = BETA_SEQ
            .iter()
            .cycle()
            .take(1 + round % 9)
            .map(|&e| EventId(e))
            .collect();
        let distance = 1 + round as u32 % 3;
        let mut local = Predictor::from_thread_trace(
            Arc::clone(beta.thread(0).unwrap()),
            PredictorConfig::default(),
        );
        for &e in &events {
            local.observe(e);
        }
        let served = 'attempt: {
            for _ in 0..50 {
                let client = match conn.as_mut() {
                    Some(c) => c,
                    None => match SocketClient::connect_tcp(addr) {
                        Ok(c) => conn.insert(c),
                        Err(_) => continue,
                    },
                };
                let id = match client.call(&Request::Open {
                    tenant: "beta".into(),
                    durable: false,
                }) {
                    Ok(Response::Session { id }) => id,
                    Err(_) => {
                        conn = None;
                        faulted_blocks += 1;
                        continue;
                    }
                    other => panic!("round {round}: chaotic open returned {other:?}"),
                };
                match client.call(&Request::ObservePredict {
                    session: id,
                    distance,
                    events: events.clone(),
                }) {
                    Ok(Response::Advice {
                        prediction: Some(p),
                        admission: Admission::Served,
                        ..
                    }) => break 'attempt p,
                    Err(_) => {
                        conn = None;
                        faulted_blocks += 1;
                    }
                    other => panic!("round {round}: chaotic observe+predict returned {other:?}"),
                }
            }
            panic!("round {round}: session block never completed in 50 attempts");
        };
        assert_bit_identical(
            &served,
            &local.predict(distance as usize),
            &format!("round {round}: beta over the faulty socket"),
        );

        // Containment check: the in-process tenant advances and stays
        // bit-identical while the wire burns.
        let step: Vec<EventId> = ALPHA_SEQ
            .iter()
            .cycle()
            .skip(alpha_pos)
            .take(3)
            .map(|&e| EventId(e))
            .collect();
        alpha_pos += 3;
        for &e in &step {
            alpha_local.observe(e);
        }
        let served = match inproc
            .call(&Request::ObservePredict {
                session: alpha_id,
                distance: 2,
                events: step,
            })
            .unwrap()
        {
            Response::Advice {
                prediction: Some(p),
                ..
            } => p,
            other => panic!("in-process alpha call returned {other:?}"),
        };
        assert_bit_identical(
            &served,
            &alpha_local.predict(2),
            &format!("round {round}: in-process alpha"),
        );
    }
    assert!(faulted_blocks >= 11, "wire faults never hit a block");

    // No wedged shard: every shard still serves a full session cycle
    // (opens round-robin, so `workers` opens touch every shard).
    let mut shards_seen = std::collections::HashSet::new();
    for _ in 0..workers {
        let id = match inproc
            .call(&Request::Open {
                tenant: "beta".into(),
                durable: false,
            })
            .unwrap()
        {
            Response::Session { id } => id,
            other => panic!("post-chaos open returned {other:?}"),
        };
        shards_seen.insert(id.shard());
        assert!(matches!(
            inproc
                .call(&Request::Observe {
                    session: id,
                    events: vec![EventId(7), EventId(8)],
                })
                .unwrap(),
            Response::Advice { .. }
        ));
        assert!(matches!(
            inproc
                .call(&Request::Predict {
                    session: id,
                    distance: 1
                })
                .unwrap(),
            Response::Advice { .. }
        ));
    }
    assert_eq!(shards_seen.len(), workers, "a shard wedged under chaos");
    let stats = server.router().stats();
    assert!(stats.events > 0);

    server.shutdown();
}

/// Slow-loris: a connection dribbling one byte at a time without ever
/// completing a frame is closed by the idle deadline — the read side
/// observes EOF well before the dribble could finish a frame.
#[test]
fn slow_loris_connection_is_evicted() {
    let tenants = Tenants::from_traces([("t".to_string(), trace_of(&[1, 2], 8))]).unwrap();
    let mut server = Server::start(
        tenants,
        ServeConfig {
            workers: 1,
            conn_idle_timeout: Duration::from_millis(300),
            faults: Some(FaultPlan::default()),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.listen_tcp("127.0.0.1:0").unwrap();

    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    // A plausible frame start (length 64) that never completes: one byte
    // every 50 ms keeps the socket "active" byte-wise while starving the
    // framer — the classic slow-loris shape.
    let header = 64u32.to_le_bytes();
    let start = Instant::now();
    let mut evicted = false;
    'dribble: for i in 0..60 {
        let byte = [header[i % 4]];
        if stream.write_all(&byte).is_err() {
            evicted = true;
            break;
        }
        // Poll for the server-side close.
        let mut sink = [0u8; 16];
        match stream.read(&mut sink) {
            Ok(0) => {
                evicted = true;
                break 'dribble;
            }
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => {
                evicted = true;
                break 'dribble;
            }
        }
    }
    assert!(evicted, "slow-loris connection survived the idle deadline");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "eviction took implausibly long"
    );

    // The deadline did not hurt a well-behaved client: a fresh
    // connection completes a full cycle immediately.
    let mut good = SocketClient::connect_tcp(addr).unwrap();
    match good
        .call(&Request::Open {
            tenant: "t".into(),
            durable: false,
        })
        .unwrap()
    {
        Response::Session { .. } => {}
        other => panic!("post-loris open returned {other:?}"),
    }
    server.shutdown();
}

/// A session opened before chaos-induced reconnects survives them: the
/// session lives server-side, so a client that lost its connection
/// resumes exactly where it was with the same handle.
#[test]
fn sessions_survive_client_reconnects() {
    let mut server = chaos_server(1);
    let addr = server.listen_tcp("127.0.0.1:0").unwrap();
    let mut conn: Option<SocketClient<std::net::TcpStream>> = None;
    let id = match call_retrying(
        addr,
        &mut conn,
        &Request::Open {
            tenant: "alpha".into(),
            durable: false,
        },
    ) {
        Response::Session { id } => id,
        other => panic!("open returned {other:?}"),
    };
    // Force a reconnect storm: every call may ride a different TCP
    // connection, the handle keeps resolving.
    for _ in 0..10 {
        conn = None;
        match call_retrying(
            addr,
            &mut conn,
            &Request::Predict {
                session: id,
                distance: 1,
            },
        ) {
            Response::Advice { .. } => {}
            other => panic!("predict across reconnect returned {other:?}"),
        }
    }
    // And a stale handle still errors (no generation confusion under
    // reconnect churn).
    assert!(matches!(
        call_retrying(
            addr,
            &mut conn,
            &Request::Predict {
                session: SessionId(id.0 ^ (1 << 33)),
                distance: 1
            }
        ),
        Response::Error { .. }
    ));
    server.shutdown();
}
