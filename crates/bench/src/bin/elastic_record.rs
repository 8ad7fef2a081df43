//! Elastic multi-process recording driver: the socket backend's
//! rank-crash recovery, exercised with real OS processes.
//!
//! Subcommands (one process each; a harness composes them):
//!
//! ```sh
//! elastic_record hub SOCKET RANKS            # serve an elastic world
//! elastic_record worker SOCKET TRACE RANK RANKS EVENTS [INCARNATION [SPAN]]
//! elastic_record assemble TRACE              # sidecars -> final trace file
//! ```
//!
//! Each worker connects to the hub as one world rank, records an
//! iteration-structured event stream through a durable
//! [`RecordingSession`], and leaves its journal/checkpoint sidecars in
//! place (no single process sees every rank's report, so finalization
//! is a separate `assemble` step over the sidecars). A harness `kill
//! -9`s a worker mid-record, then launches a replacement with
//! `INCARNATION=1`: the replacement salvages the dead rank's journal,
//! resumes at the exact event it died at, and the assembled trace is
//! byte-identical to a fault-free run's
//! (`crates/bench/tests/elastic_socket_recovery.rs` does exactly this).
//!
//! Registry discipline: every worker interns the full event vocabulary
//! in the same deterministic warm-up order before recording, so the
//! per-process registries — and therefore the journaled event ids —
//! agree across processes without any cross-process registry service.
//!
//! `worker`'s optional SPAN hosts SPAN consecutive ranks (RANK..RANK+SPAN)
//! inside one process, one thread per rank over its own hub connection;
//! the same test's fault-free run hosts two of its three ranks this way.

use std::io::Write;
use std::path::Path;

use pythia_core::persist::{remove_sidecars, PersistConfig};
use pythia_minimpi::{Communicator, Hub, SocketComm};
use pythia_runtime_mpi::{RecordingSession, SharedRegistry};

/// Distinct payloads of the recorded `step` event: the stream cycles
/// through them, so it compresses into a loop.
const STEP_MOD: i64 = 7;

fn warm_up(registry: &SharedRegistry) {
    // Deterministic interning order shared by every worker process: the
    // journaled registry deltas of all ranks must describe the same
    // global descriptor sequence for `assemble` to merge them.
    for p in 0..STEP_MOD {
        registry.intern("step", Some(p));
    }
    registry.intern("MPI_Barrier", None);
}

fn persist() -> PersistConfig {
    PersistConfig {
        // Journal every event: a replacement must salvage the dead
        // rank's complete prefix for byte-identical recovery.
        flush_events: 1,
        ..PersistConfig::default()
    }
}

fn run_hub(socket: &Path, ranks: usize) {
    let stats = Hub::serve(socket, ranks, true).expect("hub serve");
    println!(
        "hub done failures={} replaced={}",
        stats.failures_detected, stats.ranks_replaced
    );
}

fn run_workers(
    socket: &Path,
    trace: &Path,
    first: usize,
    ranks: usize,
    events: u64,
    inc: u64,
    span: usize,
) {
    std::thread::scope(|s| {
        for rank in first..first + span {
            s.spawn(move || run_worker(socket, trace, rank, ranks, events, inc));
        }
    });
}

fn run_worker(socket: &Path, trace: &Path, rank: usize, ranks: usize, events: u64, inc: u64) {
    let comm = SocketComm::connect(socket, rank, ranks, inc).expect("connect to hub");
    let session = RecordingSession::with_persist(trace, false, persist());
    warm_up(session.registry());
    let (pc, resumed) = session.wrap_or_resume(comm).expect("wrap rank");
    for i in resumed..events {
        pc.custom_event("step", Some((i as i64) % STEP_MOD));
        if i % 256 == 0 {
            println!("progress rank={rank} events={i}");
            std::io::stdout().flush().ok();
        }
    }
    pc.barrier();
    let (report, comm) = pc.finish_into().expect("finish rank");
    println!(
        "done rank={rank} events={} rules={} resumed={resumed} replaced={}",
        report.events, report.rules, report.elastic.ranks_replaced
    );
    comm.bye().ok();
}

fn run_assemble(trace: &Path) {
    let (data, report) = RecordingSession::recover(trace).expect("recover sidecars");
    data.save(trace).expect("save assembled trace");
    remove_sidecars(trace);
    for r in 0..data.thread_count() {
        let t = data.thread(r).unwrap();
        println!(
            "rank={r} events={} rules={}",
            t.event_count,
            t.grammar.rule_count()
        );
    }
    println!(
        "assembled ranks={} events={} warnings={}",
        data.thread_count(),
        data.total_events(),
        report.has_warnings()
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let usage = || -> ! {
        eprintln!(
            "usage: elastic_record hub SOCKET RANKS\n\
             \x20      elastic_record worker SOCKET TRACE RANK RANKS EVENTS [INCARNATION [SPAN]]\n\
             \x20      elastic_record assemble TRACE"
        );
        std::process::exit(2);
    };
    match argv.first().map(String::as_str) {
        Some("hub") if argv.len() >= 3 => {
            let ranks = argv[2].parse().unwrap_or_else(|_| usage());
            run_hub(Path::new(&argv[1]), ranks);
        }
        Some("worker") if argv.len() >= 6 => {
            let rank = argv[3].parse().unwrap_or_else(|_| usage());
            let ranks = argv[4].parse().unwrap_or_else(|_| usage());
            let events = argv[5].parse().unwrap_or_else(|_| usage());
            let inc = argv
                .get(6)
                .map_or(0, |s| s.parse().unwrap_or_else(|_| usage()));
            let span = argv
                .get(7)
                .map_or(1, |s| s.parse().unwrap_or_else(|_| usage()));
            run_workers(
                Path::new(&argv[1]),
                Path::new(&argv[2]),
                rank,
                ranks,
                events,
                inc,
                span,
            );
        }
        Some("assemble") if argv.len() >= 2 => run_assemble(Path::new(&argv[1])),
        _ => usage(),
    }
}
