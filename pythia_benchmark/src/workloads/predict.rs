//! `predict_apps` and `predict_noisy`: PYTHIA-PREDICT in the paper's
//! Fig. 8 setting (small-working-set reference, large-working-set replay),
//! clean and with seeded noise; plus the predict-side layer probes.

use std::time::Instant;

use pythia_core::event::EventId;
use pythia_core::grammar::GrammarIndex;
use pythia_core::oracle::Oracle;
use pythia_core::predict::{Prediction, Predictor, PredictorConfig};
use pythia_core::resilience::{
    BreakerConfig, FaultPlan, HardenedOracle, OracleHealth, ResilienceConfig,
};
use pythia_core::trace::TraceData;
use pythia_runtime_omp::{OmpOracle, ThresholdPolicy};

use crate::harness::{Ctx, RoundOut, Run, Violation, Workload};
use crate::inputs::{AppInput, Rng};
use crate::metrics::Metric;
use crate::probes;
use crate::stats;
use crate::trace::Layer;

/// Passes over every large stream per round.
pub const PASSES: usize = 8;

/// Query distance by event index: two thirds of a runtime's questions are
/// about the very next event, the rest look further ahead.
pub const DISTANCES: [usize; 4] = [1, 1, 8, 64];

/// One in this many queries is timed (the rest run back to back, so the
/// timer does not pace the loop).
const TIMED_EVERY: usize = 8;

/// One in this many operations has its spans recorded in a traced round.
const SPAN_EVERY: u64 = 1 << 13;

/// Share of events `predict_noisy` replaces.
pub const NOISE_RATE: f64 = 0.1;

/// A hardened facade pinned fault-free whatever `PYTHIA_CHAOS` says.
pub fn hermetic() -> ResilienceConfig {
    ResilienceConfig {
        faults: Some(FaultPlan::none()),
        ..ResilienceConfig::default()
    }
}

/// A breaker that scores every prediction but never opens.
///
/// With the default thresholds the watchdog quarantines the three
/// irregular applications (Kripke, AMG, Quicksilver: a small-working-set
/// reference predicts their large runs badly) and answers a tenth of all
/// queries with the uninformed default, at a fraction of the cost. The
/// timed workloads must do the same work on every operation, with none
/// failing, so they keep the watchdog's bookkeeping and take away its
/// trip wire; a withheld answer then counts as a failed operation. The
/// default thresholds are measured by the `core.resilience.*` probes.
pub fn never_tripping() -> BreakerConfig {
    BreakerConfig {
        max_error_rate: 1.0,
        ..BreakerConfig::default()
    }
}

/// The facade configuration of the timed predict workloads.
pub fn tracking() -> ResilienceConfig {
    ResilienceConfig {
        breaker: never_tripping(),
        ..hermetic()
    }
}

/// `stream` with each event replaced, with probability [`NOISE_RATE`], by
/// a random one: three times in four an event of the application's
/// vocabulary, else an id no reference trace knows.
pub fn noisy(stream: &[EventId], vocabulary: usize, rng: &mut Rng) -> Vec<EventId> {
    let threshold = (NOISE_RATE * (1u64 << 32) as f64) as u64;
    stream
        .iter()
        .map(|&e| {
            if rng.next_u64() >> 32 >= threshold {
                e
            } else if rng.below(4) == 0 {
                EventId((vocabulary as u64 + rng.below(8)) as u32)
            } else {
                EventId(rng.below(vocabulary as u64) as u32)
            }
        })
        .collect()
}

/// Per-distance scoring: `[correct, scored]` for distances 1, 8 and 64.
pub type Scores = [[u64; 2]; 3];

fn slot_of(distance: usize) -> usize {
    match distance {
        1 => 0,
        8 => 1,
        _ => 2,
    }
}

#[inline]
fn score(scores: &mut Scores, stream: &[EventId], at: usize, distance: usize, p: &Prediction) {
    if let Some(&actual) = stream.get(at + distance) {
        let s = &mut scores[slot_of(distance)];
        s[1] += 1;
        s[0] += (p.most_likely() == Some(actual)) as u64;
    }
}

/// The replay streams, per application and rank (noisy when `NOISY`).
pub struct Streams(pub Vec<Vec<Vec<EventId>>>);

fn streams(ctx: &Ctx, noisy_streams: bool) -> Streams {
    let mut rng = Rng::new(ctx.seed, 1);
    Streams(
        ctx.inputs
            .apps
            .iter()
            .map(|app| {
                app.large
                    .iter()
                    .map(|s| {
                        if noisy_streams {
                            noisy(s, app.registry.len(), &mut rng)
                        } else {
                            s.clone()
                        }
                    })
                    .collect()
            })
            .collect(),
    )
}

/// Loads `app`'s reference trace (`load` prewarms every thread's index).
fn load_reference(app: &AppInput) -> TraceData {
    TraceData::load(&app.reference).expect("load reference trace")
}

/// One hardened oracle per (application, rank), tracking its stream.
pub struct Predict<const NOISY: bool> {
    oracles: Vec<Vec<HardenedOracle>>,
    ops: u64,
}

impl<const NOISY: bool> Workload for Predict<NOISY> {
    type Plan = Streams;

    fn plan(ctx: &Ctx) -> Streams {
        streams(ctx, NOISY)
    }

    fn setup(ctx: &Ctx, _plan: &Streams) -> Self {
        let oracles = ctx
            .inputs
            .apps
            .iter()
            .map(|app| {
                let trace = load_reference(app);
                (0..trace.thread_count())
                    .map(|rank| {
                        HardenedOracle::try_predict(
                            &trace,
                            rank,
                            PredictorConfig::default(),
                            tracking(),
                        )
                        .expect("reference trace drives a predictor")
                    })
                    .collect()
            })
            .collect();
        Predict { oracles, ops: 0 }
    }

    fn round<const TRACED: bool>(&mut self, _ctx: &Ctx, plan: &Streams, run: &mut Run) -> RoundOut {
        let mut out = RoundOut::default();
        let mut scores = Scores::default();
        for (oracles, streams) in self.oracles.iter_mut().zip(&plan.0) {
            for (oracle, stream) in oracles.iter_mut().zip(streams) {
                let suppressed = oracle.resilience_stats().suppressed;
                for pass in 0..PASSES {
                    for (i, &e) in stream.iter().enumerate() {
                        let distance = DISTANCES[i % DISTANCES.len()];
                        let prediction;
                        if TRACED {
                            self.ops += 1;
                            run.tracer
                                .operation(self.ops, self.ops.is_multiple_of(SPAN_EVERY));
                            run.tracer.enter(Layer::OracleEvent);
                            oracle.event(e);
                            run.tracer.exit();
                            run.tracer.enter(Layer::OracleQuery);
                            let t0 = Instant::now();
                            prediction = oracle.predict_event(distance);
                            run.lat.push(t0.elapsed().as_nanos() as u64);
                            run.tracer.exit();
                        } else {
                            oracle.event(e);
                            if (i + pass) % TIMED_EVERY == 0 {
                                let t0 = Instant::now();
                                prediction = oracle.predict_event(distance);
                                run.lat.push(t0.elapsed().as_nanos() as u64);
                            } else {
                                prediction = oracle.predict_event(distance);
                            }
                        }
                        score(&mut scores, stream, i, distance, &prediction);
                    }
                }
                out.events += (stream.len() * PASSES) as u64;
                out.tally.suppressed += oracle.resilience_stats().suppressed - suppressed;
                run.slice();
            }
        }
        out.tally.attempted = out.events;
        out.d1_correct = scores[0][0];
        out.d1_scored = scores[0][1];
        out
    }

    fn check(ctx: &Ctx, plan: &Streams) -> Vec<Violation> {
        let mut violations = Vec::new();
        for (app, streams) in ctx.inputs.apps.iter().zip(&plan.0) {
            let trace = load_reference(app);
            for (rank, stream) in streams.iter().enumerate() {
                let mut hardened = HardenedOracle::try_predict(
                    &trace,
                    rank,
                    PredictorConfig::default(),
                    tracking(),
                )
                .expect("reference trace drives a predictor");
                let mut bare = Predictor::for_thread(&trace, rank, PredictorConfig::default())
                    .expect("reference trace drives a predictor");
                for (i, &e) in stream.iter().enumerate() {
                    hardened.event(e);
                    bare.observe(e);
                    let distance = DISTANCES[i % DISTANCES.len()];
                    let got = hardened.predict_event(distance);
                    if hardened.health() == OracleHealth::Healthy
                        && !same_prediction(&got, &bare.predict(distance))
                    {
                        violations.push(Violation::new(
                            "predict.hardened_equals_bare",
                            format!("{} rank {rank} event {i} distance {distance}", app.name),
                        ));
                        break;
                    }
                }
            }
        }
        violations
    }
}

/// Bit-for-bit equality of two predictions (`f64`s compared by bits).
pub fn same_prediction(a: &Prediction, b: &Prediction) -> bool {
    a.end_probability.to_bits() == b.end_probability.to_bits()
        && a.distribution.len() == b.distribution.len()
        && a.distribution
            .iter()
            .zip(&b.distribution)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// Paired probe rounds; each timing is the median over them.
const PROBE_ROUNDS: usize = 7;

/// The predict-side layers in isolation: the bare `Predictor` (observe,
/// queries by distance, re-seeding), what the hardened facade adds over a
/// bare `Oracle`, and the OpenMP integration's per-region decision.
pub fn probe(ctx: &Ctx) -> Vec<Metric> {
    let apps = &ctx.inputs.apps;
    let traces: Vec<TraceData> = apps.iter().map(load_reference).collect();
    let events = ctx.inputs.large_events as f64;

    // What set-up pays: loading a reference (index prewarm included), and
    // the index build on its own.
    let threads: usize = traces.iter().map(TraceData::thread_count).sum();
    let (mut load_us, mut index_us) = (Vec::new(), Vec::new());
    for _ in 0..PROBE_ROUNDS {
        let t0 = Instant::now();
        for app in apps {
            std::hint::black_box(load_reference(app).thread_count());
        }
        load_us.push(t0.elapsed().as_nanos() as f64 / 1e3 / apps.len() as f64);
        let t0 = Instant::now();
        for thread in traces.iter().flat_map(TraceData::threads) {
            std::hint::black_box(GrammarIndex::build(&thread.grammar).trace_len());
        }
        index_us.push(t0.elapsed().as_nanos() as f64 / 1e3 / threads as f64);
    }

    let clean = streams(ctx, false);
    let noisy_streams = streams(ctx, true);
    let config = PredictorConfig::default;
    let each = |streams: &Streams, f: &mut dyn FnMut(&TraceData, usize, &[EventId])| {
        for (trace, per_rank) in traces.iter().zip(&streams.0) {
            for (rank, stream) in per_rank.iter().enumerate() {
                f(trace, rank, stream);
            }
        }
    };

    // Observe alone, clean and noisy; the difference is re-seeding.
    // Returns (ns, re-seeds, candidate paths summed over events).
    let observe_pass = |streams: &Streams, count_candidates: bool| {
        let (mut reseeds, mut candidates) = (0, 0u64);
        let t0 = Instant::now();
        each(streams, &mut |trace, rank, stream| {
            let mut p = Predictor::for_thread(trace, rank, config()).expect("predictor");
            for &e in stream {
                p.observe(e);
                if count_candidates {
                    candidates += p.candidate_count() as u64;
                }
            }
            reseeds += p.stats().reseeded;
        });
        (t0.elapsed().as_nanos() as f64, reseeds, candidates)
    };
    let (_, reseeds_clean, candidates) = observe_pass(&clean, true);
    let (mut observe, mut reseed) = (Vec::new(), Vec::new());
    for _ in 0..PROBE_ROUNDS {
        let (clean_ns, _, _) = observe_pass(&clean, false);
        let (noisy_ns, reseeds_noisy, _) = observe_pass(&noisy_streams, false);
        observe.push(clean_ns / events);
        reseed.push(
            (noisy_ns - clean_ns) / reseeds_noisy.saturating_sub(reseeds_clean).max(1) as f64,
        );
    }

    // Queries by distance on a tracking predictor; accuracy on the side.
    let mut by_distance: [Vec<u64>; 3] = Default::default();
    let mut scores = Scores::default();
    each(&clean, &mut |trace, rank, stream| {
        let mut p = Predictor::for_thread(trace, rank, config()).expect("predictor");
        for (i, &e) in stream.iter().enumerate() {
            p.observe(e);
            let distance = DISTANCES[i % DISTANCES.len()];
            let t0 = Instant::now();
            let prediction = p.predict(distance);
            by_distance[slot_of(distance)].push(t0.elapsed().as_nanos() as u64);
            score(&mut scores, stream, i, distance, &prediction);
        }
    });
    let mut pooled: Vec<u64> = by_distance.iter().flatten().copied().collect();
    pooled.sort_unstable();
    for samples in &mut by_distance {
        samples.sort_unstable();
    }

    // Allocations of the steady observe + query loop.
    let a0 = probes::allocations();
    each(&clean, &mut |trace, rank, stream| {
        let mut p = Predictor::for_thread(trace, rank, config()).expect("predictor");
        for &e in stream {
            p.observe(e);
            std::hint::black_box(p.predict(1).most_likely());
        }
    });
    let allocs = probes::allocations() - a0;

    // Hardened facade over bare oracle, back to back per round.
    let mut ratios = Vec::new();
    let (mut suppressed, mut queries) = (0, 0u64);
    for _ in 0..PROBE_ROUNDS {
        let t0 = Instant::now();
        each(&clean, &mut |trace, rank, stream| {
            let mut o = Oracle::predict(trace, rank, config()).expect("oracle");
            for &e in stream {
                o.event(e);
                std::hint::black_box(o.predict_event(1).most_likely());
            }
        });
        let bare_ns = t0.elapsed().as_nanos() as f64;
        (suppressed, queries) = (0, 0);
        let t0 = Instant::now();
        each(&clean, &mut |trace, rank, stream| {
            let mut o =
                HardenedOracle::try_predict(trace, rank, config(), hermetic()).expect("oracle");
            for &e in stream {
                o.event(e);
                std::hint::black_box(o.predict_event(1).most_likely());
            }
            suppressed += o.resilience_stats().suppressed;
            queries += stream.len() as u64;
        });
        ratios.push(t0.elapsed().as_nanos() as f64 / bare_ns);
    }

    let accuracy = |s: [u64; 2]| s[0] as f64 / s[1].max(1) as f64;
    let median_ns = |sorted: &[u64]| stats::percentile_sorted(sorted, stats::P50) as f64;
    let mut out = vec![
        Metric::new(
            "core.trace.load_us_per_trace",
            stats::median(&mut load_us),
            "us",
        ),
        Metric::new(
            "core.grammar.index_build_us_per_thread",
            stats::median(&mut index_us),
            "us",
        ),
        Metric::new(
            "core.predict.observe_ns_per_event",
            stats::median(&mut observe),
            "ns",
        ),
        Metric::new("core.predict.query_d1_ns", median_ns(&by_distance[0]), "ns"),
        Metric::new("core.predict.query_d8_ns", median_ns(&by_distance[1]), "ns"),
        Metric::new(
            "core.predict.query_d64_ns",
            median_ns(&by_distance[2]),
            "ns",
        ),
        Metric::new(
            "core.resilience.overhead_ratio",
            stats::median(&mut ratios),
            "ratio",
        ),
        Metric::new(
            "core.predict.reseed_ns_per_reseed",
            stats::median(&mut reseed),
            "ns",
        ),
        Metric::new(
            "core.predict.reseeds_per_kevent",
            reseeds_clean as f64 * 1e3 / events,
            "count",
        ),
        Metric::new(
            "core.predict.candidates_mean",
            candidates as f64 / events,
            "count",
        ),
        Metric::new("core.predict.accuracy_d1", accuracy(scores[0]), "ratio"),
        Metric::new("core.predict.accuracy_d8", accuracy(scores[1]), "ratio"),
        Metric::new("core.predict.accuracy_d64", accuracy(scores[2]), "ratio"),
        Metric::new(
            "core.resilience.suppressed_ratio",
            suppressed as f64 / queries.max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "core.predict.allocs_per_kevent",
            allocs as f64 * 1e3 / events,
            "count",
        ),
        Metric::new(
            "runtime_omp.decision_ns_per_region",
            omp_decision_ns(ctx.seed),
            "ns",
        ),
    ];
    if let Some((_, ns)) = stats::tail_sorted(&pooled) {
        out.push(Metric::new("core.predict.query_p99_ns", ns as f64, "ns"));
    }
    out
}

/// Cost of the OpenMP integration's team-size decision: `region_begin` +
/// `region_end` through `OmpOracle::listener()` over the 30-region
/// LULESH-OMP step, on this thread alone — the oracle-side cost of the
/// paper's adaptive runs without their 24 worker threads.
fn omp_decision_ns(seed: u64) -> f64 {
    let regions = pythia_apps::lulesh_omp::regions();
    let recorder = OmpOracle::recorder();
    {
        let mut listener = recorder.listener();
        for _ in 0..10 {
            for &(region, _) in &regions {
                listener.region_begin(region);
                listener.region_end(region, 1);
            }
        }
    }
    let trace = recorder.finish_trace().expect("recorded LULESH-OMP steps");
    let oracle =
        OmpOracle::predictor_with(&trace, ThresholdPolicy::default(), 0.0, seed, hermetic());
    let mut listener = oracle.listener();
    const STEPS: usize = 400;
    let mut step_ns = Vec::with_capacity(STEPS);
    for _ in 0..STEPS {
        let t0 = Instant::now();
        for &(region, _) in &regions {
            std::hint::black_box(listener.region_begin(region));
            listener.region_end(region, 1);
        }
        step_ns.push(t0.elapsed().as_nanos() as f64 / regions.len() as f64);
    }
    stats::median(&mut step_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_is_seeded_and_near_its_rate() {
        let stream: Vec<EventId> = (0..20_000).map(|i| EventId(i % 7)).collect();
        let a = noisy(&stream, 7, &mut Rng::new(3, 1));
        let b = noisy(&stream, 7, &mut Rng::new(3, 1));
        let c = noisy(&stream, 7, &mut Rng::new(4, 1));
        assert_eq!(a, b);
        assert_ne!(a, c);
        // A replacement may draw the original id back: 1/7 of the known
        // three quarters.
        let changed = a.iter().zip(&stream).filter(|(x, y)| x != y).count() as f64;
        let expect = stream.len() as f64 * NOISE_RATE * (1.0 - 0.75 / 7.0);
        assert!(
            (changed - expect).abs() < 0.1 * expect,
            "{changed} vs {expect}"
        );
        assert!(a.iter().any(|e| e.0 >= 7), "some ids are unknown");
    }

    #[test]
    fn predictions_compare_by_bits() {
        let p = Prediction {
            distribution: vec![(EventId(1), 0.25), (EventId(2), 0.75)],
            end_probability: 0.0,
        };
        assert!(same_prediction(&p, &p.clone()));
        let mut q = p.clone();
        q.distribution[1].1 = f64::from_bits(0.75f64.to_bits() + 1);
        assert!(!same_prediction(&p, &q));
        let mut r = p.clone();
        r.end_probability = -0.0;
        assert!(!same_prediction(&p, &r));
    }
}
