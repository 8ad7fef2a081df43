//! Crash-recovery driver for CI: records a durable multi-rank reference
//! run with deliberately tight flush/snapshot budgets, printing a progress
//! marker as it goes so a harness can `kill -9` the process mid-run and
//! then exercise `pythia-analyze recover` on the surviving sidecars.
//!
//! ```sh
//! crash_record TRACE [RANKS] [EVENTS_PER_RANK]
//! ```
//!
//! Each rank submits an iteration-structured stream of custom events (the
//! shape a stencil solver produces), so the recovered grammar is a real
//! compressed loop nest, not noise. If the process survives to the end it
//! finalizes normally and prints `finalized`; a crash-recovery harness
//! should kill it long before that.

use std::io::Write;

use pythia_core::persist::PersistConfig;
use pythia_minimpi::{Communicator, World};
use pythia_runtime_mpi::RecordingSession;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(trace_path) = argv.first() else {
        eprintln!("usage: crash_record TRACE [RANKS] [EVENTS_PER_RANK]");
        std::process::exit(2);
    };
    let ranks: usize = argv.get(1).map_or(2, |s| s.parse().expect("RANKS"));
    let events: u64 = argv
        .get(2)
        .map_or(50_000_000, |s| s.parse().expect("EVENTS_PER_RANK"));

    let session = RecordingSession::with_persist(
        trace_path,
        false,
        PersistConfig {
            flush_events: 64,
            flush_bytes: 4 << 10,
            snapshot_events: 4096,
            ..PersistConfig::default()
        },
    );
    let reports = World::run(ranks, |comm| {
        let rank = comm.rank();
        let pc = session.wrap(comm).expect("create journal");
        for i in 0..events {
            // A 3-phase iteration with a nested exchange loop: compresses
            // into a deep rule hierarchy, exercising checkpoint replay.
            pc.custom_event("compute", Some((i % 7) as i64));
            for peer in 0..3i64 {
                pc.custom_event("exchange", Some(peer));
            }
            pc.custom_event("reduce", None);
            if rank == 0 && i % 1024 == 0 {
                println!("progress events={}", i * 5);
                std::io::stdout().flush().ok();
            }
        }
        pc.finish().expect("finish rank")
    });
    let trace = session.finalize(reports).expect("finalize");
    println!("finalized events={}", trace.total_events());
}
