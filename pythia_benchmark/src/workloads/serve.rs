//! `serve_batch` and `serve_single`: one client driving a one-worker
//! `pythia-serve` server over a Unix socket, with 64-event and one-event
//! requests; plus the serve-side layer probes.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use pythia_core::event::EventId;
use pythia_core::predict::{ObserveOutcome, Prediction, Predictor};
use pythia_core::resilience::FaultPlan;
use pythia_core::trace::{ThreadTrace, TraceData};
use pythia_serve::proto::{
    decode_request, decode_response, encode_request, encode_response, split_frame,
};
use pythia_serve::{
    Admission, Client, Request, Response, ServeConfig, Server, SessionId, SocketClient, TenantSpec,
    Tenants,
};
use std::os::unix::net::UnixStream;

use crate::harness::{Ctx, RoundOut, Run, Violation, Workload};
use crate::inputs::Rng;
use crate::metrics::Metric;
use crate::probes;
use crate::stats::{self, Tally};
use crate::trace::Layer;
use crate::workloads::predict::{never_tripping, same_prediction};

/// Sessions held open, spread evenly over the 13 tenants.
pub const SESSIONS: usize = 260;

/// Requests per session and round: at least the 30 000 64-event and
/// 50 000 one-event requests per round the workloads are sized for, and
/// the same number for every session, so counts do not depend on the seed.
const fn per_session(batch: usize) -> usize {
    if batch == 1 {
        50_000usize.div_ceil(SESSIONS)
    } else {
        30_000usize.div_ceil(SESSIONS)
    }
}

/// One in this many requests has its span recorded in a traced round.
const SPAN_EVERY: u64 = 64;

/// Requests per slice of a round (2–4 ms).
const SLICE_REQUESTS: usize = 256;

/// Seeded shape of the traffic.
pub struct Traffic {
    /// Tenant (application index) of each session: every tenant gets the
    /// same number of sessions, which sessions is seeded.
    pub tenant_of: Vec<usize>,
    /// Where in its tenant's stream each session starts: evenly spaced,
    /// so sessions of one tenant are at different phases.
    pub start: Vec<usize>,
    /// Session of each request of a round, in order: a seeded shuffle.
    pub order: Vec<u16>,
}

fn traffic(ctx: &Ctx, batch: usize) -> Traffic {
    let apps = &ctx.inputs.apps;
    let mut rng = Rng::new(ctx.seed, 2);
    let mut tenant_of: Vec<usize> = (0..SESSIONS).map(|s| s % apps.len()).collect();
    rng.shuffle(&mut tenant_of);
    let per_tenant = SESSIONS / apps.len();
    let mut seen = vec![0; apps.len()];
    let start = tenant_of
        .iter()
        .map(|&t| {
            let k = seen[t];
            seen[t] += 1;
            k * apps[t].large[0].len() / per_tenant
        })
        .collect();
    let mut order: Vec<u16> = (0..SESSIONS * per_session(batch))
        .map(|i| (i % SESSIONS) as u16)
        .collect();
    rng.shuffle(&mut order);
    Traffic {
        tenant_of,
        start,
        order,
    }
}

/// The serving configuration under test: one worker, no journals, pinned
/// fault-free whatever `PYTHIA_CHAOS` says, defaults otherwise — but for
/// the admission breakers, which score and never open (see
/// [`never_tripping`]): with the default thresholds it depends on the
/// request order whether an irregular tenant degrades, and a degraded
/// request does no oracle work.
fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        faults: Some(FaultPlan::none()),
        breaker: never_tripping(),
        ..ServeConfig::default()
    }
}

/// A running server with its tenants' reference threads.
struct Served {
    server: Server,
    socket: PathBuf,
    threads: Vec<Arc<ThreadTrace>>,
}

/// Loads the 13 references, registers rank 0 of each as a tenant, starts
/// the server and binds its Unix socket at `socket`.
fn start_server(ctx: &Ctx, socket: &Path) -> Served {
    let threads: Vec<Arc<ThreadTrace>> = ctx
        .inputs
        .apps
        .iter()
        .map(|app| {
            let trace = TraceData::load(&app.reference).expect("load reference trace");
            Arc::clone(trace.thread(0).expect("rank 0 recorded"))
        })
        .collect();
    let specs = ctx
        .inputs
        .apps
        .iter()
        .zip(&threads)
        .map(|(app, thread)| TenantSpec {
            name: app.name.to_owned(),
            thread: Arc::clone(thread),
        })
        .collect();
    let tenants = Tenants::new(specs).expect("distinct tenant names");
    let mut server = Server::start(tenants, serve_config()).expect("start server");
    server.listen_unix(socket).expect("bind unix socket");
    // Let the acceptor thread reach its poll loop before anyone connects.
    // It polls every 2 ms; a client that races its very first `accept` is
    // served at once or a whole interval later, at the scheduler's whim,
    // which made `setup_s` 3.6 or 6.5 ms. This way it is always the latter:
    // what a client connecting to a server that is up pays.
    std::thread::sleep(std::time::Duration::from_micros(100));
    Served {
        server,
        socket: socket.to_owned(),
        threads,
    }
}

fn open_session(
    call: &mut dyn FnMut(&Request) -> pythia_core::error::Result<Response>,
    tenant: &str,
) -> SessionId {
    match call(&Request::Open {
        tenant: tenant.to_owned(),
        durable: false,
    }) {
        Ok(Response::Session { id }) => id,
        other => panic!("open session on {tenant}: {other:?}"),
    }
}

/// `len` events of `stream` from `at`, wrapping around.
fn cyclic(stream: &[EventId], at: usize, len: usize) -> Vec<EventId> {
    (0..len).map(|k| stream[(at + k) % stream.len()]).collect()
}

/// Files a reply to an `ObservePredict` under the right count and returns
/// the prediction it carried, if it was served in full.
fn classify(reply: pythia_core::error::Result<Response>, tally: &mut Tally) -> Option<Prediction> {
    match reply {
        Ok(Response::Advice {
            prediction: Some(p),
            admission: Admission::Served,
            ..
        }) => return Some(p),
        Ok(Response::Advice { .. }) => tally.degraded += 1,
        Ok(Response::Busy { .. } | Response::Draining) => tally.refused += 1,
        Ok(_) | Err(_) => tally.errored += 1,
    }
    None
}

/// Server, socket client and open sessions, `BATCH` events per request.
pub struct Serve<const BATCH: usize> {
    served: Served,
    client: SocketClient<UnixStream>,
    sessions: Vec<SessionId>,
    cursor: Vec<usize>,
    ops: u64,
}

impl<const BATCH: usize> Workload for Serve<BATCH> {
    type Plan = Traffic;

    fn plan(ctx: &Ctx) -> Traffic {
        traffic(ctx, BATCH)
    }

    fn setup(ctx: &Ctx, plan: &Traffic) -> Self {
        // Relative: the scratch directory is the working directory, and a
        // socket path has 108 bytes at most.
        let served = start_server(ctx, Path::new("serve.sock"));
        let mut client = SocketClient::connect_unix(&served.socket).expect("connect");
        let sessions = plan
            .tenant_of
            .iter()
            .map(|&t| open_session(&mut |r| client.call(r), ctx.inputs.apps[t].name))
            .collect();
        Serve {
            served,
            client,
            sessions,
            cursor: plan.start.clone(),
            ops: 0,
        }
    }

    fn round<const TRACED: bool>(&mut self, ctx: &Ctx, plan: &Traffic, run: &mut Run) -> RoundOut {
        let mut out = RoundOut::default();
        // Every round replays the same stretch of every stream in the same
        // order, so rounds (and their slices) do identical work; a session
        // re-seeds once, at its first batch.
        self.cursor.clone_from(&plan.start);
        for (k, &s) in plan.order.iter().enumerate() {
            if k % SLICE_REQUESTS == 0 && k > 0 {
                run.slice();
            }
            let s = s as usize;
            let stream = &ctx.inputs.apps[plan.tenant_of[s]].large[0];
            let request = Request::ObservePredict {
                session: self.sessions[s],
                distance: 1,
                events: cyclic(stream, self.cursor[s], BATCH),
            };
            self.cursor[s] = (self.cursor[s] + BATCH) % stream.len();
            if TRACED {
                self.ops += 1;
                run.tracer
                    .operation(self.ops, self.ops.is_multiple_of(SPAN_EVERY));
                run.tracer.enter(Layer::ServeCall);
            }
            let t0 = Instant::now();
            let reply = self.client.call(&request);
            run.lat.push(t0.elapsed().as_nanos() as u64);
            if TRACED {
                run.tracer.exit();
            }
            out.tally.attempted += 1;
            if let Some(p) = classify(reply, &mut out.tally) {
                out.d1_scored += 1;
                out.d1_correct += (p.most_likely() == Some(stream[self.cursor[s]])) as u64;
            }
        }
        run.slice();
        out.events = out.tally.attempted * BATCH as u64;
        out
    }

    fn check(ctx: &Ctx, _plan: &Traffic) -> Vec<Violation> {
        let served = start_server(ctx, Path::new("check.sock"));
        let mut client = SocketClient::connect_unix(&served.socket).expect("connect");
        let mut rng = Rng::new(ctx.seed, 3);
        let apps = &ctx.inputs.apps;
        let mut sessions: Vec<(SessionId, Predictor, usize)> = apps
            .iter()
            .zip(&served.threads)
            .map(|(app, thread)| {
                let id = open_session(&mut |r| client.call(r), app.name);
                let local =
                    Predictor::from_thread_trace(Arc::clone(thread), serve_config().predictor);
                (id, local, 0)
            })
            .collect();
        let mut violations = Vec::new();
        for request in 0..1_000 {
            let t = rng.below(apps.len() as u64) as usize;
            let (id, local, cursor) = &mut sessions[t];
            let stream = &apps[t].large[0];
            let events = cyclic(stream, *cursor, 1 + rng.below(BATCH as u64) as usize);
            *cursor = (*cursor + events.len()) % stream.len();
            let outcome = local.observe_batch(&events);
            let prediction = local.predict(1);
            let reply = client.call(&Request::ObservePredict {
                session: *id,
                distance: 1,
                events,
            });
            if let Err(detail) = served_equals_local(&reply, outcome, &prediction) {
                violations.push(Violation::new(
                    "serve.served_equals_local",
                    format!("{} request {request}: {detail}", apps[t].name),
                ));
                break;
            }
        }
        drop(client);
        stop(served);
        violations
    }

    fn teardown(self) {
        drop(self.client);
        stop(self.served);
    }
}

/// Whether a served reply equals what a single-process predictor answered
/// for the same events, bit for bit.
pub fn served_equals_local(
    reply: &pythia_core::error::Result<Response>,
    outcome: Option<ObserveOutcome>,
    prediction: &Prediction,
) -> Result<(), String> {
    match reply {
        Ok(Response::Advice {
            outcome: served_outcome,
            prediction: Some(served),
            admission: Admission::Served,
        }) => {
            if *served_outcome != outcome {
                Err(format!("outcome {served_outcome:?}, locally {outcome:?}"))
            } else if !same_prediction(served, prediction) {
                Err(format!("prediction {served:?}, locally {prediction:?}"))
            } else {
                Ok(())
            }
        }
        other => Err(format!("not served in full: {other:?}")),
    }
}

/// Shuts the server down and waits for its threads.
fn stop(mut served: Served) {
    served.server.shutdown();
}

/// Requests per probe pass.
const PROBE_REQUESTS: usize = 5_000;

/// The serve layers in isolation: the codec alone, the in-process client
/// (codec + router + shard hop, no kernel), the socket on top of it, and
/// the bare predictor work inside a request.
pub fn probe(ctx: &Ctx) -> Vec<Metric> {
    let served = start_server(ctx, Path::new("probe.sock"));
    let apps = &ctx.inputs.apps;
    // BT: a long regular stream, so replies carry a typical prediction.
    let stream = &apps[0].large[0];
    let inproc: Client = served.server.client();
    let mut socket = SocketClient::connect_unix(&served.socket).expect("connect");

    // Codec alone, on a 64-event request and the reply it gets.
    let id = open_session(&mut |r| inproc.call(r), apps[0].name);
    let request = Request::ObservePredict {
        session: id,
        distance: 1,
        events: cyclic(stream, 0, 64),
    };
    let reply = inproc.call(&request).expect("in-process call");
    let request_frame = encode_request(&request);
    let reply_frame = encode_response(&reply);
    // The decoders take a frame's body, without its length prefix.
    let body = |mut frame: &[u8]| {
        split_frame(&mut frame)
            .expect("valid")
            .expect("whole frame")
    };
    let (request_body, reply_body) = (body(&request_frame), body(&reply_frame));
    const CODEC_REPS: usize = 20_000;
    let time_codec = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        for _ in 0..CODEC_REPS {
            f();
        }
        t0.elapsed().as_nanos() as f64 / CODEC_REPS as f64
    };
    let encode_req_ns = time_codec(&mut || {
        std::hint::black_box(encode_request(std::hint::black_box(&request)));
    });
    let decode_req_ns = time_codec(&mut || {
        std::hint::black_box(decode_request(std::hint::black_box(&request_body)).expect("decode"));
    });
    let encode_resp_ns = time_codec(&mut || {
        std::hint::black_box(encode_response(std::hint::black_box(&reply)));
    });
    let decode_resp_ns = time_codec(&mut || {
        std::hint::black_box(decode_response(std::hint::black_box(&reply_body)).expect("decode"));
    });

    // One-event requests through the in-process client and the socket,
    // each on its own session over the same stream.
    let mut tally = Tally::default();
    let mut drive = |call: &mut dyn FnMut(&Request) -> pythia_core::error::Result<Response>| {
        let id = open_session(call, apps[0].name);
        let mut rtt = Vec::with_capacity(PROBE_REQUESTS);
        for k in 0..PROBE_REQUESTS {
            let request = Request::ObservePredict {
                session: id,
                distance: 1,
                events: cyclic(stream, k, 1),
            };
            let t0 = Instant::now();
            let reply = call(&request);
            rtt.push(t0.elapsed().as_nanos() as u64);
            tally.attempted += 1;
            classify(reply, &mut tally);
        }
        rtt.sort_unstable();
        rtt
    };
    drive(&mut |r| socket.call(r)); // warm both paths
    let inproc_rtt = drive(&mut |r| inproc.call(r));
    let (a0, c0) = (probes::allocations(), probes::voluntary_ctx_switches());
    let socket_rtt = drive(&mut |r| socket.call(r));
    let allocs = probes::allocations() - a0;
    let switches = c0.zip(probes::voluntary_ctx_switches()).map(|(a, b)| b - a);
    let p50_us = |sorted: &[u64]| stats::percentile_sorted(sorted, stats::P50) as f64 / 1e3;

    // The predictor work inside a 64-event request, without the server.
    let mut local =
        Predictor::from_thread_trace(Arc::clone(&served.threads[0]), serve_config().predictor);
    let batches: Vec<Vec<EventId>> = (0..PROBE_REQUESTS)
        .map(|k| cyclic(stream, k * 64, 64))
        .collect();
    let t0 = Instant::now();
    for batch in &batches {
        std::hint::black_box(local.observe_batch(batch));
        std::hint::black_box(local.predict(1).most_likely());
    }
    let bare_ns = t0.elapsed().as_nanos() as f64 / (PROBE_REQUESTS * 64) as f64;

    let (busy, degraded) = match inproc.call(&Request::Stats) {
        Ok(Response::Stats { shards }) => shards.iter().fold((0, 0), |(b, d), s| {
            (
                b + s.busy_rejects,
                d + s.degraded_predictions + s.degraded_events,
            )
        }),
        other => panic!("stats request: {other:?}"),
    };
    drop(socket);
    stop(served);

    let mut out = vec![
        Metric::new("serve.proto.encode_req_ns", encode_req_ns, "ns"),
        Metric::new("serve.proto.decode_req_ns", decode_req_ns, "ns"),
        Metric::new("serve.proto.encode_resp_ns", encode_resp_ns, "ns"),
        Metric::new("serve.proto.decode_resp_ns", decode_resp_ns, "ns"),
        Metric::new("serve.proto.req_bytes", request_frame.len() as f64, "bytes"),
        Metric::new("serve.proto.resp_bytes", reply_frame.len() as f64, "bytes"),
        Metric::new("serve.server.inproc_us_per_req", p50_us(&inproc_rtt), "us"),
        Metric::new(
            "serve.server.socket_overhead_us",
            p50_us(&socket_rtt) - p50_us(&inproc_rtt),
            "us",
        ),
        Metric::new("serve.shard.bare_observe_ns_per_event", bare_ns, "ns"),
        Metric::new(
            "serve.allocs_per_req",
            allocs as f64 / PROBE_REQUESTS as f64,
            "count",
        ),
        Metric::new("serve.shard.busy_rejects", busy as f64, "count"),
        Metric::new("serve.shard.degraded_responses", degraded as f64, "count"),
    ];
    if let Some((_, ns)) = stats::tail_sorted(&socket_rtt) {
        out.push(Metric::new(
            "serve.server.rtt_p99_us",
            ns as f64 / 1e3,
            "us",
        ));
    }
    match switches {
        Some(n) => out.push(Metric::new(
            "serve.server.ctx_switches_per_req",
            n as f64 / PROBE_REQUESTS as f64,
            "count",
        )),
        None => eprintln!("warning: /proc/self/task unavailable, ctx_switches omitted"),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn advice(p: Prediction, admission: Admission) -> pythia_core::error::Result<Response> {
        Ok(Response::Advice {
            outcome: Some(ObserveOutcome::Matched),
            prediction: Some(p),
            admission,
        })
    }

    fn prediction() -> Prediction {
        Prediction {
            distribution: vec![(EventId(3), 0.625), (EventId(5), 0.375)],
            end_probability: 0.0,
        }
    }

    #[test]
    fn one_corrupted_served_prediction_fails_loudly() {
        let local = prediction();
        let outcome = Some(ObserveOutcome::Matched);
        assert_eq!(
            served_equals_local(&advice(local.clone(), Admission::Served), outcome, &local),
            Ok(())
        );
        // One ulp in one weight.
        let mut corrupt = local.clone();
        corrupt.distribution[0].1 = f64::from_bits(corrupt.distribution[0].1.to_bits() ^ 1);
        let err = served_equals_local(&advice(corrupt, Admission::Served), outcome, &local)
            .expect_err("corrupted prediction must be caught");
        assert!(err.starts_with("prediction"), "{err}");
        // A different outcome, a withheld answer, a refusal: all caught.
        assert!(
            served_equals_local(&advice(local.clone(), Admission::Served), None, &local).is_err()
        );
        assert!(
            served_equals_local(&advice(local.clone(), Admission::Degraded), outcome, &local)
                .is_err()
        );
        let busy = Ok(Response::Busy { retry_after_ms: 1 });
        assert!(served_equals_local(&busy, outcome, &local).is_err());
    }

    #[test]
    fn replies_are_filed_under_the_right_failure() {
        let mut t = Tally::default();
        assert!(classify(advice(prediction(), Admission::Served), &mut t).is_some());
        assert_eq!(t.failed(), 0);
        assert!(classify(advice(prediction(), Admission::Degraded), &mut t).is_none());
        assert!(classify(Ok(Response::Busy { retry_after_ms: 1 }), &mut t).is_none());
        assert!(classify(Ok(Response::Draining), &mut t).is_none());
        assert!(classify(Ok(Response::Closed), &mut t).is_none());
        assert_eq!((t.degraded, t.refused, t.errored), (1, 2, 1));
        assert_eq!(t.failed(), 4);
    }

    #[test]
    fn cyclic_batches_wrap() {
        let s: Vec<EventId> = (0..5).map(EventId).collect();
        let ids = |v: Vec<EventId>| v.into_iter().map(|e| e.0).collect::<Vec<_>>();
        assert_eq!(ids(cyclic(&s, 3, 4)), [3, 4, 0, 1]);
        assert_eq!(ids(cyclic(&s, 7, 2)), [2, 3]);
    }

    #[test]
    fn every_session_sends_the_same_number_of_requests() {
        assert_eq!(per_session(64) * SESSIONS, 30_160);
        assert_eq!(per_session(1) * SESSIONS, 50_180);
    }
}
