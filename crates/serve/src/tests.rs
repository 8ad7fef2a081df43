//! End-to-end tests for the serving stack: in-process byte-path
//! parity with a single-process predictor, per-tenant admission
//! control, and the socket transports.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use pythia_core::event::{EventId, EventRegistry};
use pythia_core::predict::{Prediction, Predictor, PredictorConfig};
use pythia_core::record::{RecordConfig, Recorder};
use pythia_core::resilience::BreakerConfig;
use pythia_core::trace::TraceData;

use crate::proto::{Admission, Request, Response};
use crate::server::{Client, ServeConfig, Server, SocketClient};
use crate::session::SessionId;
use crate::tenant::{TenantSpec, Tenants};

pub(crate) fn trace_of(seq: &[u32], repeat: usize) -> TraceData {
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

fn start_two_tenant_server(workers: usize, breaker: BreakerConfig) -> Server {
    let tenants = Tenants::from_traces([
        ("alpha".to_string(), trace_of(&[1, 2, 3, 4], 16)),
        ("beta".to_string(), trace_of(&[7, 8, 9], 16)),
    ])
    .unwrap();
    Server::start(
        tenants,
        ServeConfig {
            workers,
            breaker,
            ..ServeConfig::default()
        },
    )
    .unwrap()
}

pub(crate) fn open(client: &Client, tenant: &str) -> SessionId {
    match client
        .call(&Request::Open {
            tenant: tenant.to_string(),
            durable: false,
        })
        .unwrap()
    {
        Response::Session { id } => id,
        other => panic!("open returned {other:?}"),
    }
}

pub(crate) fn predict(
    client: &Client,
    session: SessionId,
    distance: u32,
) -> (Prediction, Admission) {
    match client
        .call(&Request::Predict { session, distance })
        .unwrap()
    {
        Response::Advice {
            prediction: Some(p),
            admission,
            ..
        } => (p, admission),
        other => panic!("predict returned {other:?}"),
    }
}

pub(crate) fn assert_bit_identical(served: &Prediction, local: &Prediction) {
    assert_eq!(served.distribution.len(), local.distribution.len());
    for (&(es, ps), &(el, pl)) in served.distribution.iter().zip(&local.distribution) {
        assert_eq!(es, el);
        assert_eq!(ps.to_bits(), pl.to_bits(), "probability drifted for {es:?}");
    }
    assert_eq!(
        served.end_probability.to_bits(),
        local.end_probability.to_bits()
    );
}

/// Served predictions are byte-identical to a single-process predictor
/// fed the same events — across many sessions, on every shard.
#[test]
fn served_predictions_match_single_process_oracle() {
    let server = start_two_tenant_server(3, BreakerConfig::default());
    let client = server.client();
    let tenants = [
        ("alpha", trace_of(&[1, 2, 3, 4], 16), vec![1u32, 2, 3]),
        ("beta", trace_of(&[7, 8, 9], 16), vec![7u32, 8]),
    ];
    for (name, trace, prefix) in &tenants {
        for _ in 0..8 {
            let id = open(&client, name);
            let events: Vec<EventId> = prefix.iter().map(|&e| EventId(e)).collect();
            match client
                .call(&Request::Observe {
                    session: id,
                    events: events.clone(),
                })
                .unwrap()
            {
                Response::Advice { admission, .. } => assert_eq!(admission, Admission::Served),
                other => panic!("observe returned {other:?}"),
            }
            let mut local = Predictor::from_thread_trace(
                Arc::clone(trace.thread(0).unwrap()),
                PredictorConfig::default(),
            );
            for &e in &events {
                local.observe(e);
            }
            for distance in [1, 2, 5] {
                let (served, admission) = predict(&client, id, distance);
                assert_eq!(admission, Admission::Served);
                assert_bit_identical(&served, &local.predict(distance as usize));
            }
            assert!(matches!(
                client.call(&Request::Close { session: id }).unwrap(),
                Response::Closed
            ));
        }
    }
}

/// Sessions round-robin across shards and the aggregated stats see
/// every open and event.
#[test]
fn sessions_spread_across_shards() {
    let server = start_two_tenant_server(4, BreakerConfig::default());
    let client = server.client();
    let mut shards_used = std::collections::HashSet::new();
    for _ in 0..8 {
        let id = open(&client, "alpha");
        shards_used.insert(id.shard());
        client
            .call(&Request::Observe {
                session: id,
                events: vec![EventId(1), EventId(2)],
            })
            .unwrap();
    }
    assert_eq!(shards_used.len(), 4, "round-robin should hit every shard");
    let stats = server.router().stats();
    assert_eq!(stats.opens, 8);
    assert_eq!(stats.sessions_open, 8);
    assert_eq!(stats.events, 16);
    assert_eq!(stats.degraded_events, 0);
    match client.call(&Request::Stats).unwrap() {
        Response::Stats { shards } => assert_eq!(shards.len(), 4),
        other => panic!("stats returned {other:?}"),
    }
}

/// A tenant whose stream diverges trips its breaker and degrades to
/// no-advice, while the other tenant on the *same shard* keeps getting
/// predictions byte-identical to the single-process oracle.
#[test]
fn circuit_broken_tenant_degrades_without_touching_others() {
    // One worker: both tenants share a shard, the worst case for
    // interference.
    let breaker = BreakerConfig {
        window: 16,
        backoff_initial: 1 << 20, // stay open for the whole test
        ..BreakerConfig::default()
    };
    let server = start_two_tenant_server(1, breaker);
    let client = server.client();
    let good = open(&client, "alpha");
    let bad = open(&client, "beta");

    // Drive the bad tenant with events its reference trace never saw.
    let junk: Vec<EventId> = (0..64).map(|_| EventId(999)).collect();
    let resp = client
        .call(&Request::Observe {
            session: bad,
            events: junk,
        })
        .unwrap();
    match resp {
        Response::Advice { admission, .. } => assert_eq!(admission, Admission::Degraded),
        other => panic!("observe returned {other:?}"),
    }
    // Its predictions are the no-advice fallback.
    let (p, admission) = predict(&client, bad, 3);
    assert_eq!(admission, Admission::Degraded);
    assert!(p.distribution.is_empty());
    assert_eq!(p.end_probability.to_bits(), 0.0f64.to_bits());
    // Further observes are acknowledged without oracle work.
    client
        .call(&Request::Observe {
            session: bad,
            events: vec![EventId(999); 32],
        })
        .unwrap();
    let stats = server.router().stats();
    assert!(stats.breaker_trips >= 1, "breaker never tripped");
    assert!(
        stats.degraded_events >= 32,
        "open breaker should skip oracle work, got {stats:?}"
    );

    // The good tenant, same shard, is entirely unaffected.
    let events = vec![EventId(1), EventId(2), EventId(3)];
    match client
        .call(&Request::Observe {
            session: good,
            events: events.clone(),
        })
        .unwrap()
    {
        Response::Advice { admission, .. } => assert_eq!(admission, Admission::Served),
        other => panic!("observe returned {other:?}"),
    }
    let mut local = Predictor::from_thread_trace(
        Arc::clone(trace_of(&[1, 2, 3, 4], 16).thread(0).unwrap()),
        PredictorConfig::default(),
    );
    for &e in &events {
        local.observe(e);
    }
    let (served, admission) = predict(&client, good, 2);
    assert_eq!(admission, Admission::Served);
    assert_bit_identical(&served, &local.predict(2));
}

/// Stale, closed, malformed, and cross-shard session ids are rejected
/// with an error, never a panic or another session's state.
#[test]
fn session_lifecycle_is_guarded() {
    let server = start_two_tenant_server(2, BreakerConfig::default());
    let client = server.client();
    let id = open(&client, "alpha");
    assert!(matches!(
        client.call(&Request::Close { session: id }).unwrap(),
        Response::Closed
    ));
    // Closed id: every op errors.
    for req in [
        Request::Observe {
            session: id,
            events: vec![EventId(1)],
        },
        Request::Predict {
            session: id,
            distance: 1,
        },
        Request::Close { session: id },
    ] {
        assert!(matches!(client.call(&req).unwrap(), Response::Error { .. }));
    }
    // The slot is reused under a new generation; the old id stays dead.
    let reused = open(&client, "beta");
    assert!(matches!(
        client.call(&Request::Close { session: id }).unwrap(),
        Response::Error { .. }
    ));
    assert!(matches!(
        client.call(&Request::Close { session: reused }).unwrap(),
        Response::Closed
    ));
    // Unknown tenant and out-of-range shard.
    assert!(matches!(
        client
            .call(&Request::Open {
                tenant: "nope".into(),
                durable: false
            })
            .unwrap(),
        Response::Error { .. }
    ));
    assert!(matches!(
        client
            .call(&Request::Predict {
                session: SessionId(u64::MAX),
                distance: 1
            })
            .unwrap(),
        Response::Error { .. }
    ));
}

/// Slab admission: a full shard refuses opens instead of growing
/// without bound.
#[test]
fn full_shards_refuse_opens() {
    let tenants = Tenants::from_traces([("t".to_string(), trace_of(&[1, 2], 8))]).unwrap();
    let server = Server::start(
        tenants,
        ServeConfig {
            workers: 1,
            max_sessions_per_shard: 3,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let client = server.client();
    let ids: Vec<SessionId> = (0..3).map(|_| open(&client, "t")).collect();
    assert!(matches!(
        client
            .call(&Request::Open {
                tenant: "t".into(),
                durable: false
            })
            .unwrap(),
        Response::Error { .. }
    ));
    assert_eq!(server.router().stats().rejected_opens, 1);
    // Closing one frees capacity.
    client.call(&Request::Close { session: ids[0] }).unwrap();
    open(&client, "t");
}

/// The framed protocol over real sockets (TCP and Unix) produces the
/// same responses as the in-process path.
#[test]
fn socket_transports_roundtrip() {
    let mut server = start_two_tenant_server(2, BreakerConfig::default());
    let addr = server.listen_tcp("127.0.0.1:0").unwrap();
    let sock_path =
        std::env::temp_dir().join(format!("pythia-serve-test-{}.sock", std::process::id()));
    server.listen_unix(&sock_path).unwrap();

    let mut tcp = SocketClient::connect_tcp(addr).unwrap();
    let mut unix = SocketClient::connect_unix(&sock_path).unwrap();
    let inproc = server.client();

    for client_call in [
        &mut tcp as &mut dyn FnMutCall,
        &mut unix as &mut dyn FnMutCall,
    ] {
        let id = match client_call.call_req(&Request::Open {
            tenant: "alpha".into(),
            durable: false,
        }) {
            Response::Session { id } => id,
            other => panic!("open over socket returned {other:?}"),
        };
        let events = vec![EventId(1), EventId(2), EventId(3)];
        client_call.call_req(&Request::Observe {
            session: id,
            events: events.clone(),
        });
        let over_socket = match client_call.call_req(&Request::Predict {
            session: id,
            distance: 2,
        }) {
            Response::Advice {
                prediction: Some(p),
                ..
            } => p,
            other => panic!("predict over socket returned {other:?}"),
        };
        // Same state driven in-process yields the identical bytes.
        let local_id = open(&inproc, "alpha");
        inproc
            .call(&Request::Observe {
                session: local_id,
                events,
            })
            .unwrap();
        let (local, _) = predict(&inproc, local_id, 2);
        assert_bit_identical(&over_socket, &local);
    }

    server.shutdown();
    let _ = std::fs::remove_file(&sock_path);
}

/// One connection of `concurrent_connections_match_single_process_oracle`:
/// opens a session per tenant, waits at `start` for the other clients,
/// then alternates `requests` `ObservePredict`s between its sessions,
/// checking every reply against a predictor of its own. Returns how many
/// events it sent.
fn drive_checked_connection(
    client_index: usize,
    requests: usize,
    sock_path: &std::path::Path,
    start: &Barrier,
) -> usize {
    let mut client = SocketClient::connect_unix(sock_path).unwrap();
    let tenants: [(&str, &[u32]); 2] = [("alpha", &[1, 2, 3, 4]), ("beta", &[7, 8, 9])];
    let mut sessions = tenants.map(|(name, seq)| {
        let id = match client.call_req(&Request::Open {
            tenant: name.to_string(),
            durable: false,
        }) {
            Response::Session { id } => id,
            other => panic!("open returned {other:?}"),
        };
        let local = Predictor::from_thread_trace(
            Arc::clone(trace_of(seq, 16).thread(0).unwrap()),
            PredictorConfig::default(),
        );
        (id, local, seq.iter().cycle())
    });
    start.wait();
    let mut sent = 0;
    for r in 0..requests {
        let (id, local, stream) = &mut sessions[(r + client_index) % 2];
        let events: Vec<EventId> = stream.take(1 + r % 3).map(|&e| EventId(e)).collect();
        sent += events.len();
        let distance = 1 + (r % 2) as u32;
        let outcome = local.observe_batch(&events);
        match client.call_req(&Request::ObservePredict {
            session: *id,
            distance,
            events,
        }) {
            Response::Advice {
                outcome: served_outcome,
                prediction: Some(served),
                admission: Admission::Served,
            } => {
                assert_eq!(served_outcome, outcome);
                assert_bit_identical(&served, &local.predict(distance as usize));
            }
            other => panic!("request {r} of client {client_index} returned {other:?}"),
        }
    }
    sent
}

/// Many connections, one truth: four socket clients, started together,
/// interleave requests on sessions of both tenants. With one shard they
/// all contend for one lock, with two they cross; either way every reply
/// equals a single-process predictor's bit for bit, and the final stats
/// count exactly what was sent.
#[test]
fn concurrent_connections_match_single_process_oracle() {
    const CLIENTS: usize = 4;
    const REQUESTS: usize = 300;
    for workers in [1, 2] {
        let mut server = start_two_tenant_server(workers, BreakerConfig::default());
        let sock_path = std::env::temp_dir().join(format!(
            "pythia-serve-contend-{}-{workers}.sock",
            std::process::id()
        ));
        server.listen_unix(&sock_path).unwrap();
        let start = Barrier::new(CLIENTS);
        let events_sent: usize = std::thread::scope(|s| {
            let (sock_path, start) = (&sock_path, &start);
            let drivers: Vec<_> = (0..CLIENTS)
                .map(|c| s.spawn(move || drive_checked_connection(c, REQUESTS, sock_path, start)))
                .collect();
            drivers.into_iter().map(|d| d.join().unwrap()).sum()
        });
        // Published before each reply left: nothing is still in flight.
        let stats = server.router().stats();
        assert_eq!(stats.events, events_sent as u64);
        assert_eq!(stats.predictions, (CLIENTS * REQUESTS) as u64);
        assert_eq!(stats.busy_rejects + stats.degraded_events, 0);
        server.shutdown();
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pythia-serve-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn open_durable(client: &Client, tenant: &str) -> SessionId {
    match client
        .call(&Request::Open {
            tenant: tenant.to_string(),
            durable: true,
        })
        .unwrap()
    {
        Response::Session { id } => id,
        other => panic!("durable open returned {other:?}"),
    }
}

/// The resurrection contract: a durable session journaled by one server
/// incarnation is resumed by the next with *byte-identical* predictor
/// state — same distribution, same f64 bits — and under a fresh id the
/// old handle can never alias.
#[test]
fn durable_sessions_resurrect_byte_identical() {
    let dir = temp_dir("resurrect");
    let config = || ServeConfig {
        workers: 2,
        journal_dir: Some(dir.clone()),
        faults: Some(pythia_core::resilience::FaultPlan::default()),
        ..ServeConfig::default()
    };
    let tenants = || {
        Tenants::from_traces([
            ("alpha".to_string(), trace_of(&[1, 2, 3, 4], 16)),
            ("beta".to_string(), trace_of(&[7, 8, 9], 16)),
        ])
        .unwrap()
    };

    // First incarnation: durable sessions at distinct stream positions.
    let mut server = Server::start(tenants(), config()).unwrap();
    let client = server.client();
    let specs: [(&str, &[u32], usize); 3] = [
        ("alpha", &[1, 2, 3, 4], 5),
        ("beta", &[7, 8, 9], 4),
        ("alpha", &[1, 2, 3, 4], 9),
    ];
    let mut old_ids = Vec::new();
    for (tenant, seq, n) in specs {
        let id = open_durable(&client, tenant);
        let events: Vec<EventId> = seq.iter().cycle().take(n).map(|&e| EventId(e)).collect();
        client
            .call(&Request::Observe {
                session: id,
                events,
            })
            .unwrap();
        old_ids.push(id);
    }
    // An ephemeral session must leave nothing behind.
    let ephemeral = open(&client, "alpha");
    client
        .call(&Request::Observe {
            session: ephemeral,
            events: vec![EventId(1)],
        })
        .unwrap();
    server.shutdown(); // graceful drain flushes the journals
    drop(server);

    // Second incarnation over the same directory.
    let (server, report) = Server::recover(tenants(), config()).unwrap();
    assert!(
        report.failed.is_empty(),
        "recover failed: {:?}",
        report.failed
    );
    assert_eq!(report.resumed.len(), 3, "ephemeral session resurrected");
    let client = server.client();
    for (_, seq, n) in specs {
        let old = old_ids.remove(0);
        let (_, new) = *report
            .resumed
            .iter()
            .find(|(o, _)| *o == old)
            .expect("session not resurrected");
        assert_ne!(new, old, "resumed session must get a fresh id");
        // The old id is dead on the new server.
        assert!(matches!(
            client
                .call(&Request::Predict {
                    session: old,
                    distance: 1
                })
                .unwrap(),
            Response::Error { .. }
        ));
        // Resume on the old id is idempotent and maps to the same new id.
        match client.call(&Request::Resume { session: old }).unwrap() {
            Response::Session { id } => assert_eq!(id, new),
            other => panic!("re-resume returned {other:?}"),
        }
        // Predictions from the resurrected session are byte-identical to
        // a single-process predictor fed the same stream.
        let mut local = Predictor::from_thread_trace(
            Arc::clone(trace_of(seq, 16).thread(0).unwrap()),
            PredictorConfig::default(),
        );
        for e in seq.iter().cycle().take(n) {
            local.observe(EventId(*e));
        }
        for distance in [1, 3] {
            let (served, admission) = predict(&client, new, distance);
            assert_eq!(admission, Admission::Served);
            assert_bit_identical(&served, &local.predict(distance as usize));
        }
        // And the session keeps journaling: observe more, then close
        // removes the journal file.
        client
            .call(&Request::Observe {
                session: new,
                events: vec![EventId(seq[n % seq.len()])],
            })
            .unwrap();
    }
    let stats = server.router().stats();
    assert_eq!(stats.resumed_sessions, 3);
    assert_eq!(stats.journal_errors, 0);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Idle sessions are evicted by the sweeper; a durable evicted session
/// stays resumable from its journal, an ephemeral one is simply gone.
#[test]
fn ttl_eviction_keeps_durable_sessions_resumable() {
    let dir = temp_dir("ttl");
    let tenants = Tenants::from_traces([("t".to_string(), trace_of(&[1, 2, 3], 16))]).unwrap();
    let server = Server::start(
        tenants,
        ServeConfig {
            workers: 1,
            journal_dir: Some(dir.clone()),
            session_ttl: Some(std::time::Duration::from_millis(50)),
            sweep_interval: std::time::Duration::from_millis(10),
            faults: Some(pythia_core::resilience::FaultPlan::default()),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let client = server.client();
    let durable = open_durable(&client, "t");
    let ephemeral = open(&client, "t");
    let events = vec![EventId(1), EventId(2), EventId(3), EventId(1)];
    client
        .call(&Request::Observe {
            session: durable,
            events: events.clone(),
        })
        .unwrap();
    // Wait out the TTL plus a few sweep intervals.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let stats = server.router().stats();
        if stats.evicted_sessions >= 2 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "sweeper never evicted: {stats:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    // Both handles are dead...
    for id in [durable, ephemeral] {
        assert!(matches!(
            client
                .call(&Request::Predict {
                    session: id,
                    distance: 1
                })
                .unwrap(),
            Response::Error { .. }
        ));
    }
    // ...but the durable one resumes from its journal, byte-identical.
    let new = match client.call(&Request::Resume { session: durable }).unwrap() {
        Response::Session { id } => id,
        other => panic!("resume after eviction returned {other:?}"),
    };
    let mut local = Predictor::from_thread_trace(
        Arc::clone(trace_of(&[1, 2, 3], 16).thread(0).unwrap()),
        PredictorConfig::default(),
    );
    for &e in &events {
        local.observe(e);
    }
    let (served, _) = predict(&client, new, 2);
    assert_bit_identical(&served, &local.predict(2));
    // The ephemeral session left no journal to resume.
    assert!(matches!(
        client
            .call(&Request::Resume { session: ephemeral })
            .unwrap(),
        Response::Error { .. }
    ));
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Drain: new opens and resumes answer `Draining`, in-flight sessions
/// keep serving, close still works, and shutdown stays idempotent.
#[test]
fn drain_rejects_new_sessions_but_serves_inflight() {
    let server = start_two_tenant_server(2, BreakerConfig::default());
    let client = server.client();
    let id = open(&client, "alpha");
    server.drain();
    assert!(matches!(
        client
            .call(&Request::Open {
                tenant: "alpha".into(),
                durable: false
            })
            .unwrap(),
        Response::Draining
    ));
    assert!(matches!(
        client
            .call(&Request::Resume {
                session: SessionId(42)
            })
            .unwrap(),
        Response::Draining
    ));
    // The in-flight session still observes and predicts.
    client
        .call(&Request::Observe {
            session: id,
            events: vec![EventId(1), EventId(2)],
        })
        .unwrap();
    let (_, admission) = predict(&client, id, 1);
    assert_eq!(admission, Admission::Served);
    assert!(matches!(
        client.call(&Request::Close { session: id }).unwrap(),
        Response::Closed
    ));
    server.drain(); // idempotent
}

/// One greedy tenant hits its cross-shard session cap and is refused
/// while the other tenant still opens freely; closing frees capacity.
#[test]
fn tenant_session_cap_contains_greedy_tenants() {
    let tenants = Tenants::from_traces([
        ("greedy".to_string(), trace_of(&[1, 2], 8)),
        ("modest".to_string(), trace_of(&[7, 8], 8)),
    ])
    .unwrap();
    let server = Server::start(
        tenants,
        ServeConfig {
            workers: 2,
            max_sessions_per_tenant: 3,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let client = server.client();

    // The cap is exact, not approximate. Each round, four threads leave a
    // barrier together and open on alternating shards, with no greedy
    // session live: three get a seat, never four, however the opens
    // interleave. The round's leader takes the count before anyone can
    // start the next round; everyone closes before arriving there. (A
    // separate load and add let a fourth in about once in 10 000 rounds
    // on two CPUs, so the rounds sample the race; they cannot force it.)
    const THREADS: usize = 4;
    let (admitted, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let round = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                for _ in 0..5_000 {
                    round.wait();
                    let seat = match client
                        .call(&Request::Open {
                            tenant: "greedy".into(),
                            durable: false,
                        })
                        .unwrap()
                    {
                        Response::Session { id } => Some(id),
                        _ => None,
                    };
                    admitted.fetch_add(seat.is_some() as usize, Ordering::SeqCst);
                    if round.wait().is_leader() {
                        peak.fetch_max(admitted.swap(0, Ordering::SeqCst), Ordering::SeqCst);
                    }
                    if let Some(session) = seat {
                        client.call(&Request::Close { session }).unwrap();
                    }
                }
            });
        }
    });
    assert_eq!(peak.into_inner(), 3, "greedy sessions admitted at once");

    let ids: Vec<SessionId> = (0..3).map(|_| open(&client, "greedy")).collect();
    assert!(matches!(
        client
            .call(&Request::Open {
                tenant: "greedy".into(),
                durable: false
            })
            .unwrap(),
        Response::Error { .. }
    ));
    // The other tenant is untouched by greedy's cap.
    open(&client, "modest");
    // Closing a greedy session frees a seat.
    client.call(&Request::Close { session: ids[0] }).unwrap();
    open(&client, "greedy");
}

/// A durable open on a server with no journal directory must fail
/// loudly: the client asked for crash survival it would not get.
#[test]
fn durable_open_without_journal_dir_is_refused() {
    let server = start_two_tenant_server(1, BreakerConfig::default());
    let client = server.client();
    match client
        .call(&Request::Open {
            tenant: "alpha".into(),
            durable: true,
        })
        .unwrap()
    {
        Response::Error { message } => assert!(message.contains("journal"), "{message}"),
        other => panic!("durable open returned {other:?}"),
    }
}

/// The breaker's half-open path end to end: a tripped tenant whose
/// stream comes back in agreement with its reference re-closes the
/// breaker and is served real predictions again.
#[test]
fn tripped_tenant_recloses_after_agreeing_again() {
    let breaker = BreakerConfig {
        window: 8,
        max_error_rate: 0.5,
        backoff_initial: 8,
        backoff_max: 8,
        probe_window: 4,
        recovery_error_rate: 0.5,
        ..BreakerConfig::default()
    };
    let server = start_two_tenant_server(1, breaker);
    let client = server.client();
    let id = open(&client, "beta");

    // Trip: a window of events the reference trace never saw.
    match client
        .call(&Request::Observe {
            session: id,
            events: vec![EventId(999); 32],
        })
        .unwrap()
    {
        Response::Advice { admission, .. } => assert_eq!(admission, Admission::Degraded),
        other => panic!("junk observe returned {other:?}"),
    }
    assert!(server.router().stats().breaker_trips >= 1);
    let (p, admission) = predict(&client, id, 1);
    assert_eq!(admission, Admission::Degraded);
    assert!(p.distribution.is_empty());

    // Serve the backoff: event time advances even while degraded, so
    // after backoff_initial events the breaker half-opens.
    client
        .call(&Request::Observe {
            session: id,
            events: vec![EventId(999); 8],
        })
        .unwrap();

    // Agreement: reference-stream events reseed the cursor (one scored
    // miss) and then match; within one probe window the breaker
    // re-closes and predictions are real again.
    let good: Vec<EventId> = [7u32, 8, 9]
        .iter()
        .cycle()
        .take(12)
        .map(|&e| EventId(e))
        .collect();
    client
        .call(&Request::Observe {
            session: id,
            events: good,
        })
        .unwrap();
    let (p, admission) = predict(&client, id, 1);
    assert_eq!(admission, Admission::Served, "breaker did not re-close");
    assert!(
        !p.distribution.is_empty(),
        "re-closed tenant still gets no advice"
    );
    // Last observed event was 9, the reference cycles [7, 8, 9]: a real
    // prediction, not a fallback, names the next event.
    assert_eq!(p.most_likely(), Some(EventId(7)));
}

/// Object-safe adapter so the TCP and Unix socket clients share one
/// test body.
trait FnMutCall {
    fn call_req(&mut self, req: &Request) -> Response;
}

impl<S: std::io::Read + std::io::Write> FnMutCall for SocketClient<S> {
    fn call_req(&mut self, req: &Request) -> Response {
        self.call(req).unwrap()
    }
}

/// Tenant registration rejects duplicates and empty directories.
#[test]
fn tenant_directory_is_validated() {
    let t = trace_of(&[1], 4);
    let thread = Arc::clone(t.thread(0).unwrap());
    assert!(Tenants::new(vec![
        TenantSpec {
            name: "x".into(),
            thread: Arc::clone(&thread)
        },
        TenantSpec {
            name: "x".into(),
            thread
        },
    ])
    .is_err());
    assert!(Server::start(Tenants::default(), ServeConfig::default()).is_err());
    let tenants = Tenants::from_traces([("t".to_string(), trace_of(&[1, 2], 8))]).unwrap();
    assert!(Server::start(
        tenants,
        ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        }
    )
    .is_err());
}
