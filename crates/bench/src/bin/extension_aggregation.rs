//! **Extension** — the optimization the paper's MPI runtime only mimics
//! (§III-B: "the optimization could consist in aggregating multiple
//! successive MPI send messages"), implemented for real: when PYTHIA
//! predicts that the next event is another `MPI_Isend` to the same peer,
//! the runtime buffers the message and ships the burst as one transfer.
//!
//! Reports, per application: logical messages, wire transfers without and
//! with aggregation, and the held-back/batch counters. Quicksilver (bursty
//! particle sends) benefits; apps without same-peer bursts are unaffected
//! — exactly the adaptivity a heuristic-free oracle buys.
//!
//! Usage: `extension_aggregation [--ranks N] [--json P]`

use std::sync::Arc;

use pythia_apps::harness::{run_app_in_registry, RunResult};
use pythia_apps::work::WorkScale;
use pythia_apps::{find_app, MpiApp, WorkingSet};
use pythia_bench::{maybe_write_json, Args, Table};
use pythia_minimpi::{Communicator, World};
use pythia_runtime_mpi::{AggregationConfig, MpiMode, PythiaComm};

/// Runs `app` in predict mode, optionally aggregating, and returns the
/// summed network stats over all ranks plus the aggregation counters.
fn run_predict(
    app: &dyn MpiApp,
    ranks: usize,
    trace: Arc<pythia_core::trace::TraceData>,
    aggregate: bool,
) -> (u64, u64, u64, u64) {
    let mode = MpiMode::predict(trace.clone());
    let registry = PythiaComm::registry_for(&mode);
    let out = World::run(ranks, |comm| {
        let pc = PythiaComm::wrap(comm, &mode, Arc::clone(&registry));
        if aggregate {
            pc.enable_aggregation(AggregationConfig::default());
        }
        app.run(&pc, WorkingSet::Small, &WorkScale::ZERO);
        let net = pc.inner().network_stats();
        let report = pc.finish().expect("no live split communicators");
        (net, report.aggregation)
    });
    let mut transfers = 0;
    let mut messages = 0;
    let mut held = 0;
    let mut batches = 0;
    for (net, agg) in out {
        transfers += net.transfers;
        messages += net.messages;
        held += agg.held_back;
        batches += agg.batches;
    }
    (transfers, messages, held, batches)
}

fn main() {
    let args = Args::capture();
    if args.flag("help") {
        eprintln!(
            "extension_aggregation: prediction-driven send aggregation\n\
             --ranks N   ranks per app (default 8)\n\
             --json PATH write results as JSON"
        );
        return;
    }
    let ranks: usize = args.parse_or("ranks", 8);

    let mut table = Table::new(&[
        "Application",
        "messages",
        "transfers (plain)",
        "transfers (aggregated)",
        "reduction(%)",
        "held back",
        "batches",
    ]);
    let mut json_rows = Vec::new();

    for name in ["Quicksilver", "AMG", "LU", "BT"] {
        let app = find_app(name).unwrap();
        // Record a reference trace (shared registry for id stability).
        let mode = MpiMode::record();
        let registry = PythiaComm::registry_for(&mode);
        let rec: RunResult = run_app_in_registry(
            app.as_ref(),
            ranks,
            WorkingSet::Small,
            mode,
            WorkScale::ZERO,
            Arc::clone(&registry),
        );
        let trace = Arc::new(rec.into_trace().expect("record-mode run"));

        let (plain_t, plain_m, _, _) = run_predict(app.as_ref(), ranks, Arc::clone(&trace), false);
        let (agg_t, agg_m, held, batches) =
            run_predict(app.as_ref(), ranks, Arc::clone(&trace), true);
        assert_eq!(plain_m, agg_m, "aggregation must not change traffic");
        let reduction = (plain_t - agg_t) as f64 / plain_t as f64 * 100.0;
        table.row(vec![
            name.to_string(),
            plain_m.to_string(),
            plain_t.to_string(),
            agg_t.to_string(),
            format!("{reduction:.1}"),
            held.to_string(),
            batches.to_string(),
        ]);
        json_rows.push(serde_json::json!({
            "app": name,
            "ranks": ranks,
            "messages": plain_m,
            "transfers_plain": plain_t,
            "transfers_aggregated": agg_t,
            "reduction_pct": reduction,
            "held_back": held,
            "batches": batches,
        }));
    }

    println!(
        "Extension: prediction-driven send aggregation ({ranks} ranks, small ws)\n\
         (one 'transfer' = one mailbox deposit, the modeled wire cost)\n"
    );
    table.print();
    maybe_write_json(
        &args,
        &serde_json::json!({ "extension_aggregation": json_rows }),
    );
}
