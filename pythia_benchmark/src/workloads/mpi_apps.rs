//! `mpi_apps`: the 13 applications through the `runtime-mpi` façade on a
//! one-rank world, in Vanilla, Record and Predict mode — the façade and
//! `minimpi` call paths with inter-rank waiting taken out; plus the probes
//! that price each mode per event.

use std::sync::Arc;
use std::time::Instant;

use pythia_apps::harness::{run_app, RunResult};
use pythia_apps::work::WorkScale;
use pythia_apps::{all_apps, MpiApp, WorkingSet};
use pythia_core::analyze::{analyze_trace, AnalyzeConfig, Severity};
use pythia_core::trace::TraceData;
use pythia_runtime_mpi::{ElasticStats, MpiMode};

use crate::harness::{Ctx, RoundOut, Run, Violation, Workload};
use crate::metrics::Metric;
use crate::stats;
use crate::trace::Layer;
use crate::workloads::predict::tracking;

/// Passes over the 13 applications per round, each in all three modes.
pub const PASSES: usize = 20;

/// The applications with their one-rank references loaded.
pub struct MpiApps {
    apps: Vec<Box<dyn MpiApp>>,
    references: Vec<Arc<TraceData>>,
    /// Summed wall time per mode over the latest round, ns:
    /// vanilla, record, predict.
    pub mode_ns: [u64; 3],
    /// Events submitted in record mode over the latest round.
    pub recorded_events: u64,
}

fn run_solo(app: &dyn MpiApp, mode: MpiMode) -> RunResult {
    run_app(app, 1, WorkingSet::Large, mode, WorkScale::ZERO)
}

fn predict_mode(reference: &Arc<TraceData>) -> MpiMode {
    MpiMode::predict_resilient(Arc::clone(reference), vec![1], tracking())
}

/// Files what a finished run reports under the round's counts.
fn account(result: &RunResult, out: &mut RoundOut) {
    out.tally.attempted += 1;
    for r in &result.reports {
        out.events += r.events;
        out.tally.dropped += r.dropped_events;
        out.tally.suppressed += r.resilience.suppressed;
        out.tally.errored += (r.elastic != ElasticStats::default()) as u64;
        for (distance, accuracy) in &r.accuracy {
            if *distance == 1 {
                out.d1_correct += accuracy.correct;
                out.d1_scored += accuracy.total();
            }
        }
    }
}

impl Workload for MpiApps {
    type Plan = ();

    fn plan(_ctx: &Ctx) {}

    fn setup(ctx: &Ctx, _plan: &()) -> Self {
        let references = ctx
            .inputs
            .apps
            .iter()
            .map(|app| {
                let path = app.solo.as_ref().expect("solo references generated");
                // `load` prewarms every thread's grammar index.
                Arc::new(TraceData::load(path).expect("load solo reference"))
            })
            .collect();
        MpiApps {
            apps: all_apps(),
            references,
            mode_ns: [0; 3],
            recorded_events: 0,
        }
    }

    fn round<const TRACED: bool>(&mut self, _ctx: &Ctx, _plan: &(), run: &mut Run) -> RoundOut {
        let mut out = RoundOut::default();
        self.mode_ns = [0; 3];
        self.recorded_events = 0;
        for pass in 0..PASSES {
            for (a, app) in self.apps.iter().enumerate() {
                let modes = [
                    (Layer::MpiVanilla, MpiMode::Vanilla),
                    (Layer::MpiRecord, MpiMode::record()),
                    (Layer::MpiPredict, predict_mode(&self.references[a])),
                ];
                for (m, (layer, mode)) in modes.into_iter().enumerate() {
                    if TRACED {
                        run.tracer
                            .operation((pass * self.apps.len() + a) as u64, pass == 0);
                        run.tracer.enter(layer);
                    }
                    let t0 = Instant::now();
                    let result = run_solo(app.as_ref(), mode);
                    let ns = t0.elapsed().as_nanos() as u64;
                    if TRACED {
                        run.tracer.exit();
                    }
                    self.mode_ns[m] += ns;
                    if layer == Layer::MpiRecord {
                        run.lat.push(ns);
                        self.recorded_events += result.total_events();
                    }
                    account(&result, &mut out);
                }
                run.slice();
            }
        }
        out
    }

    fn check(ctx: &Ctx, _plan: &()) -> Vec<Violation> {
        let mut violations = Vec::new();
        for (app, input) in all_apps().iter().zip(&ctx.inputs.apps) {
            let recorded = run_solo(app.as_ref(), MpiMode::record());
            let events = recorded.total_events();
            let trace = match recorded.into_trace() {
                Ok(t) => t,
                Err(e) => {
                    violations.push(Violation::new(
                        "mpi_apps.trace",
                        format!("{}: {e}", input.name),
                    ));
                    continue;
                }
            };
            if trace.total_events() != events {
                violations.push(Violation::new(
                    "mpi_apps.trace",
                    format!(
                        "{}: {} events submitted, {} recorded",
                        input.name,
                        events,
                        trace.total_events()
                    ),
                ));
            }
            let report = analyze_trace(&trace, &AnalyzeConfig::default());
            if report.exceeds(Severity::Error) {
                violations.push(Violation::new(
                    "mpi_apps.analyze",
                    format!("{}: {}", input.name, report.render_text()),
                ));
            }
        }
        violations
    }
}

/// Rounds the probe runs; each metric is the median over them.
const PROBE_ROUNDS: usize = 3;

/// What each mode costs per submitted event, by difference from the
/// vanilla run of the same pass.
pub fn probe(ctx: &Ctx) -> Vec<Metric> {
    let mut system = MpiApps::setup(ctx, &());
    let mut run = Run::idle();
    let (mut vanilla, mut record, mut predict, mut ratio) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut elastic_nonzero = 0;
    for _ in 0..PROBE_ROUNDS {
        run.begin();
        let out = system.round::<false>(ctx, &(), &mut run);
        let events = system.recorded_events as f64;
        let [v, r, p] = system.mode_ns.map(|ns| ns as f64);
        vanilla.push(v / events);
        record.push((r - v) / events);
        predict.push((p - v) / events);
        ratio.push(r / v);
        elastic_nonzero += out.tally.errored;
    }
    vec![
        Metric::new(
            "minimpi.vanilla_ns_per_call",
            stats::median(&mut vanilla),
            "ns",
        ),
        Metric::new(
            "runtime_mpi.record_ns_per_event",
            stats::median(&mut record),
            "ns",
        ),
        Metric::new(
            "runtime_mpi.predict_ns_per_event",
            stats::median(&mut predict),
            "ns",
        ),
        Metric::new(
            "runtime_mpi.record_overhead_ratio",
            stats::median(&mut ratio),
            "ratio",
        ),
        Metric::new(
            "runtime_mpi.elastic_counters_nonzero",
            elastic_nonzero as f64,
            "count",
        ),
    ]
}
