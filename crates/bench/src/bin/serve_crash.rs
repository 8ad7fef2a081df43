//! Crash-recovery regression driver for `pythia-serve` durable
//! sessions: three roles composed by the `serve_crash_recovery`
//! integration test into a kill -9 storyline.
//!
//! - `serve --dir D --socket S [--recover]` — runs a server with its
//!   session journals in `D`, prints `ready` (plus a `recovered N M`
//!   line under `--recover`), then serves until killed.
//! - `drive --socket S --out F` — opens durable sessions, streams
//!   distinct reference prefixes into them, sanity-checks the served
//!   predictions against a local oracle, and records
//!   `old_id tenant events_fed` lines to `F`.
//! - `verify --socket S --in F` — after a kill -9 and a `--recover`
//!   restart: resumes every recorded session and asserts its
//!   predictions are *byte-identical* (f64 bit patterns) to a fresh
//!   single-process predictor fed the same events. Exits nonzero on
//!   any divergence.
//!
//! Everything is deterministic: the tenants' reference traces and each
//! session's prefix are pure functions of the session index, so `drive`
//! and `verify` agree on the expected state without passing it around.

use std::io::Write as _;
use std::sync::Arc;

use pythia_bench::Args;
use pythia_core::event::{EventId, EventRegistry};
use pythia_core::predict::{Prediction, Predictor, PredictorConfig};
use pythia_core::record::{RecordConfig, Recorder};
use pythia_core::resilience::FaultPlan;
use pythia_core::trace::TraceData;
use pythia_serve::{Request, Response, ServeConfig, Server, SessionId, SocketClient, Tenants};

const TENANTS: [(&str, &[u32]); 2] = [("alpha", &[1, 2, 3, 4, 2, 1]), ("beta", &[7, 8, 9])];
const SESSIONS: usize = 12;

fn trace_of(seq: &[u32]) -> TraceData {
    let mut rec = Recorder::new(RecordConfig {
        timestamps: false,
        validate: false,
    });
    for _ in 0..32 {
        for &e in seq {
            rec.record(EventId(e));
        }
    }
    rec.finish(&EventRegistry::new()).unwrap()
}

fn tenants() -> Tenants {
    Tenants::from_traces(
        TENANTS
            .iter()
            .map(|(name, seq)| (name.to_string(), trace_of(seq))),
    )
    .expect("tenant directory")
}

/// The deterministic stream session `i` feeds: a prefix of its tenant's
/// reference cycle whose length varies with `i`.
fn session_plan(i: usize) -> (&'static str, Vec<EventId>) {
    let (name, seq) = TENANTS[i % TENANTS.len()];
    let n = 1 + (i * 5) % (3 * seq.len());
    let events = seq.iter().cycle().take(n).map(|&e| EventId(e)).collect();
    (name, events)
}

fn local_oracle(tenant: &str, events: &[EventId]) -> Predictor {
    let seq = TENANTS
        .iter()
        .find(|(name, _)| *name == tenant)
        .expect("known tenant")
        .1;
    let trace = trace_of(seq);
    let mut p = Predictor::from_thread_trace(
        Arc::clone(trace.thread(0).unwrap()),
        PredictorConfig::default(),
    );
    for &e in events {
        p.observe(e);
    }
    p
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
            "{what}: probability bits diverged for {es:?}"
        );
    }
    assert_eq!(
        served.end_probability.to_bits(),
        local.end_probability.to_bits(),
        "{what}: end probability diverged"
    );
}

fn serve(args: &Args) -> ! {
    let dir = std::path::PathBuf::from(args.value("dir").expect("serve needs --dir"));
    let socket = std::path::PathBuf::from(args.value("socket").expect("serve needs --socket"));
    let config = ServeConfig {
        workers: 2,
        journal_dir: Some(dir),
        // Pin the server fault-free: this gate measures crash recovery,
        // not injected chaos (PYTHIA_CHAOS may be set for other stages).
        faults: Some(FaultPlan::default()),
        ..ServeConfig::default()
    };
    let mut server = if args.flag("recover") {
        let (server, report) = Server::recover(tenants(), config).expect("recover");
        assert!(
            report.failed.is_empty(),
            "recover refused journals: {:?}",
            report.failed
        );
        println!("recovered {} {}", report.resumed.len(), report.failed.len());
        server
    } else {
        Server::start(tenants(), config).expect("server start")
    };
    server.listen_unix(&socket).expect("bind unix socket");
    println!("ready");
    std::io::stdout().flush().unwrap();
    // Serve until killed; the kill -9 *is* the test.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn drive(args: &Args) {
    let socket = std::path::PathBuf::from(args.value("socket").expect("drive needs --socket"));
    let out = std::path::PathBuf::from(args.value("out").expect("drive needs --out"));
    let mut client = SocketClient::connect_unix(&socket).expect("connect");
    let mut manifest = String::new();
    for i in 0..SESSIONS {
        let (tenant, events) = session_plan(i);
        let id = match client.call(&Request::Open {
            tenant: tenant.to_string(),
            durable: true,
        }) {
            Ok(Response::Session { id }) => id,
            other => panic!("durable open failed: {other:?}"),
        };
        match client.call(&Request::Observe {
            session: id,
            events: events.clone(),
        }) {
            Ok(Response::Advice { .. }) => {}
            other => panic!("observe failed: {other:?}"),
        }
        // Pre-crash sanity: the served state already matches the oracle.
        let served = match client.call(&Request::Predict {
            session: id,
            distance: 1,
        }) {
            Ok(Response::Advice {
                prediction: Some(p),
                ..
            }) => p,
            other => panic!("predict failed: {other:?}"),
        };
        let local = local_oracle(tenant, &events);
        assert_bit_identical(
            &served,
            &local.predict(1),
            &format!("pre-crash session {i}"),
        );
        manifest.push_str(&format!("{:016x} {} {}\n", id.0, tenant, events.len()));
    }
    std::fs::write(&out, manifest).expect("write manifest");
    println!("drove {SESSIONS} durable sessions");
}

fn verify(args: &Args) {
    let socket = std::path::PathBuf::from(args.value("socket").expect("verify needs --socket"));
    let input = std::path::PathBuf::from(args.value("in").expect("verify needs --in"));
    let manifest = std::fs::read_to_string(&input).expect("read manifest");
    let mut client = SocketClient::connect_unix(&socket).expect("connect");
    let mut checked = 0usize;
    for line in manifest.lines() {
        let mut parts = line.split_whitespace();
        let old = SessionId(u64::from_str_radix(parts.next().expect("id"), 16).expect("hex id"));
        let tenant = parts.next().expect("tenant");
        let n: usize = parts.next().expect("count").parse().expect("count");
        let (plan_tenant, events) = session_plan(checked);
        assert_eq!(tenant, plan_tenant, "manifest order diverged from plan");
        assert_eq!(n, events.len(), "manifest length diverged from plan");

        // The old id must be dead, and Resume must map it to a live one.
        match client.call(&Request::Predict {
            session: old,
            distance: 1,
        }) {
            Ok(Response::Error { .. }) => {}
            other => panic!("pre-resume predict on old id returned {other:?}"),
        }
        let new = match client.call(&Request::Resume { session: old }) {
            Ok(Response::Session { id }) => id,
            other => panic!("resume failed: {other:?}"),
        };
        assert_ne!(new, old, "resumed session must get a fresh id");

        // The resurrection contract: byte-identical predictions.
        let local = local_oracle(tenant, &events);
        for distance in [1u32, 3] {
            let served = match client.call(&Request::Predict {
                session: new,
                distance,
            }) {
                Ok(Response::Advice {
                    prediction: Some(p),
                    ..
                }) => p,
                other => panic!("post-resume predict failed: {other:?}"),
            };
            assert_bit_identical(
                &served,
                &local.predict(distance as usize),
                &format!("resumed session {checked} distance {distance}"),
            );
        }
        checked += 1;
    }
    assert_eq!(checked, SESSIONS, "manifest missing sessions");
    println!("verified {checked} resumed sessions byte-identical");
}

fn main() {
    let role = std::env::args().nth(1).unwrap_or_default();
    let args = Args::capture();
    match role.as_str() {
        "serve" => serve(&args),
        "drive" => drive(&args),
        "verify" => verify(&args),
        _ => {
            eprintln!("usage: serve_crash <serve|drive|verify> [--dir D] [--socket S] [--out F] [--in F] [--recover]");
            std::process::exit(2);
        }
    }
}
