//! Property-based tests of the core invariants:
//!
//! * the grammar reduction is lossless and maintains all Sequitur
//!   invariants for arbitrary event sequences;
//! * trace serialization round-trips;
//! * the predictor is exact on deterministic replays of the reference
//!   stream once synchronized;
//! * the distance walk agrees with expanding one event at a time.

use proptest::collection::vec;
use proptest::prelude::*;

use pythia_core::event::{EventId, EventRegistry};
use pythia_core::grammar::builder::GrammarBuilder;
use pythia_core::grammar::GrammarIndex;
use pythia_core::predict::path::Path;
use pythia_core::predict::walker::{DistanceAccumulator, Outcome, Walker};
use pythia_core::predict::{Predictor, PredictorConfig};
use pythia_core::record::{RecordConfig, Recorder};
use pythia_core::trace::TraceData;

fn ids(seq: &[u32]) -> Vec<EventId> {
    seq.iter().map(|&x| EventId(x)).collect()
}

/// Random sequence with a small alphabet (heavy digram collisions).
fn small_alphabet() -> impl Strategy<Value = Vec<u32>> {
    vec(0u32..4, 0..300)
}

/// Random sequence with a medium alphabet.
fn medium_alphabet() -> impl Strategy<Value = Vec<u32>> {
    vec(0u32..32, 0..300)
}

/// Structured sequences: random nesting of repeated blocks, mimicking the
/// loop structure of HPC applications.
fn structured() -> impl Strategy<Value = Vec<u32>> {
    (vec(0u32..6, 1..6), 1u32..20, vec(0u32..6, 0..4)).prop_map(|(block, reps, tail)| {
        let mut seq = Vec::new();
        for _ in 0..reps {
            seq.extend(&block);
        }
        seq.extend(&tail);
        seq
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn reduction_is_lossless_small(seq in small_alphabet()) {
        let mut b = GrammarBuilder::new();
        for &s in &seq {
            b.push(EventId(s));
        }
        b.flush_accel();
        b.check_invariants().unwrap();
        prop_assert_eq!(b.grammar().unfold(), ids(&seq));
    }

    #[test]
    fn reduction_is_lossless_medium(seq in medium_alphabet()) {
        let mut b = GrammarBuilder::new();
        for &s in &seq {
            b.push(EventId(s));
        }
        b.flush_accel();
        b.check_invariants().unwrap();
        prop_assert_eq!(b.grammar().unfold(), ids(&seq));
    }

    #[test]
    fn reduction_is_lossless_structured(seq in structured()) {
        let mut b = GrammarBuilder::new();
        for &s in &seq {
            b.push(EventId(s));
            b.flush_accel();
            b.check_invariants().unwrap();
        }
        prop_assert_eq!(b.grammar().unfold(), ids(&seq));
    }

    #[test]
    fn compaction_preserves_unfold(seq in small_alphabet()) {
        let mut b = GrammarBuilder::new();
        for &s in &seq {
            b.push(EventId(s));
        }
        let g = b.into_grammar();
        let c = g.compact();
        prop_assert_eq!(g.unfold(), c.unfold());
        prop_assert_eq!(g.rule_count(), c.rule_count());
    }

    #[test]
    fn trace_binary_roundtrip(seq in medium_alphabet()) {
        let mut rec = Recorder::new(RecordConfig::default());
        let mut t = 0u64;
        for &s in &seq {
            t += 1 + (s as u64 * 13) % 97;
            rec.record_at(EventId(s), t);
        }
        let trace = rec.finish(&EventRegistry::new()).unwrap();
        let bytes = trace.to_bytes();
        let loaded = TraceData::from_bytes(&bytes).unwrap();
        prop_assert_eq!(
            loaded.thread(0).unwrap().grammar.unfold(),
            trace.thread(0).unwrap().grammar.unfold()
        );
        prop_assert_eq!(loaded.total_events(), seq.len() as u64);
    }

    #[test]
    fn trace_json_roundtrip(seq in vec(0u32..8, 0..100)) {
        let mut rec = Recorder::new(RecordConfig::default());
        let mut t = 0u64;
        for &s in &seq {
            t += 10;
            rec.record_at(EventId(s), t);
        }
        let trace = rec.finish(&EventRegistry::new()).unwrap();
        let json = trace.to_json().unwrap();
        let loaded = TraceData::from_json(&json).unwrap();
        prop_assert_eq!(
            loaded.thread(0).unwrap().grammar.unfold(),
            trace.thread(0).unwrap().grammar.unfold()
        );
    }

    /// Replaying the exact reference stream: after a synchronization
    /// prefix, next-event predictions must be correct whenever the
    /// predictor claims full confidence (probability ~1).
    #[test]
    fn confident_predictions_are_correct(seq in structured()) {
        prop_assume!(seq.len() >= 4);
        let mut rec = Recorder::new(RecordConfig { timestamps: false, validate: false });
        for &s in &seq {
            rec.record_at(EventId(s), 0);
        }
        let trace = rec.finish(&EventRegistry::new()).unwrap();
        let mut p = Predictor::for_thread(&trace, 0, PredictorConfig::default()).unwrap();
        for i in 0..seq.len() - 1 {
            p.observe(EventId(seq[i]));
            let pred = p.predict(1);
            if let Some(best) = pred.most_likely() {
                if pred.probability(best) > 0.999 {
                    prop_assert_eq!(
                        best,
                        EventId(seq[i + 1]),
                        "confident misprediction at index {} of {:?}",
                        i,
                        seq
                    );
                }
            }
        }
    }

    /// Prediction distributions are normalized: probabilities plus the
    /// end-of-trace mass sum to 1 (or the prediction is uninformed).
    #[test]
    fn prediction_mass_normalized(seq in small_alphabet(), distance in 1usize..8) {
        prop_assume!(!seq.is_empty());
        let mut rec = Recorder::new(RecordConfig { timestamps: false, validate: false });
        for &s in &seq {
            rec.record_at(EventId(s), 0);
        }
        let trace = rec.finish(&EventRegistry::new()).unwrap();
        let mut p = Predictor::for_thread(&trace, 0, PredictorConfig::default()).unwrap();
        p.observe(EventId(seq[0]));
        let pred = p.predict(distance);
        if pred.is_informed() {
            let total: f64 = pred.distribution.iter().map(|&(_, w)| w).sum::<f64>()
                + pred.end_probability;
            prop_assert!((total - 1.0).abs() < 1e-6, "mass {total}");
        }
    }

    /// The read-only distance walk returns what expanding one event at a
    /// time returns — per-event mass and end mass — from every seed of a
    /// random small grammar and from the paths a few steps behind them
    /// (known offsets, deeper stacks).
    #[test]
    fn distance_walk_matches_stepwise_expansion(
        (flat, nested, pick) in (vec(0u32..4, 1..60), structured(), 0u32..2),
    ) {
        let seq = if pick == 0 { flat } else { nested };
        let mut b = GrammarBuilder::new();
        for &s in &seq {
            b.push(EventId(s));
        }
        let grammar = b.into_grammar().compact();
        let index = GrammarIndex::build(&grammar);
        let walker = Walker { grammar: &grammar, index: &index };
        // One expansion step of a weighted state set, equal paths merged;
        // returns the mass that ran off the end of the trace.
        let step = |states: &mut Vec<(Path, f64)>| {
            let (mut next, mut end, mut out) = (Vec::<(Path, f64)>::new(), 0.0, Vec::new());
            for (path, weight) in states.drain(..) {
                out.clear();
                walker.expand(&path, &mut out);
                for branch in out.drain(..) {
                    let w = weight * branch.factor;
                    match next.iter_mut().find(|(p, _)| *p == branch.path) {
                        _ if branch.outcome == Outcome::End => end += w,
                        Some((_, mass)) => *mass += w,
                        None => next.push((branch.path, w)),
                    }
                }
            }
            *states = next;
            end
        };
        let mut starts: Vec<Path> = (0..6u32)
            .flat_map(|ev| grammar.terminal_uses(EventId(ev)))
            .map(|loc| Path::seed(loc.rule, loc.pos))
            .collect();
        let mut frontier: Vec<(Path, f64)> = starts.iter().map(|p| (p.clone(), 1.0)).collect();
        for _ in 0..3 {
            step(&mut frontier);
            starts.extend(frontier.iter().map(|(p, _)| p.clone()));
        }
        starts.truncate(48);
        for start in &starts {
            let mut states = vec![(start.clone(), 1.0)];
            let mut end = 0.0;
            for distance in 1..=64u64 {
                // The states' events are the distribution at `distance`.
                end += step(&mut states);
                if ![1, 2, 3, 5, 8, 13, 21, 34, 64].contains(&distance) {
                    continue;
                }
                let mut acc = DistanceAccumulator::new(usize::MAX);
                walker.simulate_distance(start, distance, 1.0, &mut acc);
                prop_assert!(
                    (acc.end_mass - end).abs() < 1e-9,
                    "end mass {} vs {} at distance {} from {:?}", acc.end_mass, end, distance, start
                );
                let mut want: Vec<(EventId, f64)> = Vec::new();
                for (path, w) in &states {
                    let event = path.terminal(&grammar);
                    match want.iter_mut().find(|(e, _)| *e == event) {
                        Some((_, mass)) => *mass += w,
                        None => want.push((event, *w)),
                    }
                }
                let mass_of = |set: &[(EventId, f64)], event: EventId| {
                    set.iter().find(|(e, _)| *e == event).map_or(0.0, |&(_, w)| w)
                };
                for &(event, _) in want.iter().chain(&acc.per_event) {
                    let (got, exp) = (mass_of(&acc.per_event, event), mass_of(&want, event));
                    prop_assert!(
                        (got - exp).abs() < 1e-9,
                        "{:?}: {} vs {} at distance {} from {:?}", event, got, exp, distance, start
                    );
                }
            }
        }
    }
}
