//! Per-rank event streams of the 13 applications, shared by the
//! grammar-level tests.
//!
//! All ranks of a run intern into one registry, so raw event ids follow
//! thread interleaving. Each rank's stream is therefore renumbered by
//! first appearance, which makes it a function of the program alone.

use std::collections::HashMap;

use pythia_apps::harness::run_app;
use pythia_apps::work::WorkScale;
use pythia_apps::{MpiApp, WorkingSet};
use pythia_core::event::EventId;
use pythia_runtime_mpi::MpiMode;

/// Each rank's recorded stream of `app` at `ranks` ranks, canonicalized.
pub fn rank_streams(app: &dyn MpiApp, ranks: usize, ws: WorkingSet) -> Vec<Vec<EventId>> {
    let run = run_app(
        app,
        ranks,
        ws,
        MpiMode::Record { timestamps: false },
        WorkScale::ZERO,
    );
    run.reports
        .iter()
        .map(|r| {
            let trace = r.thread_trace.as_ref().expect("record mode");
            canonical(&trace.grammar.unfold())
        })
        .collect()
}

/// Renumbers event ids by first appearance.
pub fn canonical(events: &[EventId]) -> Vec<EventId> {
    let mut ids: HashMap<u32, u32> = HashMap::new();
    events
        .iter()
        .map(|e| {
            let next = ids.len() as u32;
            EventId(*ids.entry(e.0).or_insert(next))
        })
        .collect()
}
