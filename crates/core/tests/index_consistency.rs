//! Consistency of the precomputed [`GrammarIndex`] query layer with the
//! naive grammar scans it replaces:
//!
//! * occurrence-index lookups (locations, order, weights) must agree with a
//!   fresh scan of the grammar for arbitrary event sequences;
//! * rule lengths, suffix lengths, and first terminals must agree with the
//!   grammar's own recursive computations.
//!
//! (The distance-striding `Predictor::predict` is held to its stepwise
//! reference by `predict::tests` inside the crate and by the walk-vs-stepwise
//! property in `proptests.rs`.)

use proptest::collection::vec;
use proptest::prelude::*;

use pythia_core::event::{EventId, EventRegistry};
use pythia_core::grammar::{GrammarIndex, Symbol};
use pythia_core::predict::{Predictor, PredictorConfig};
use pythia_core::record::{RecordConfig, Recorder};
use pythia_core::trace::TraceData;

fn trace_of(seq: &[u32]) -> TraceData {
    let mut rec = Recorder::new(RecordConfig::default());
    let mut t = 0u64;
    for &s in seq {
        t += 100;
        rec.record_at(EventId(s), t);
    }
    rec.finish(&EventRegistry::new()).unwrap()
}

/// Structured sequences: repeated blocks with a tail, mimicking the loop
/// structure of HPC applications (deep grammars, long repetitions).
fn structured() -> impl Strategy<Value = Vec<u32>> {
    (vec(0u32..6, 1..8), 1u32..24, vec(0u32..6, 0..5)).prop_map(|(block, reps, tail)| {
        let mut seq = Vec::new();
        for _ in 0..reps {
            seq.extend(&block);
        }
        seq.extend(&tail);
        seq
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The occurrence index returns exactly what a naive scan finds: same
    /// locations in the same deterministic order, with the weights
    /// `expansions(rule) × count` that re-seeding uses.
    #[test]
    fn occurrence_index_agrees_with_naive_scan(seq in vec(0u32..8, 1..250)) {
        let trace = trace_of(&seq);
        let thread = trace.thread(0).unwrap();
        let g = &thread.grammar;
        let idx = thread.index();
        let expansions = g.expansion_counts();
        let mut total_occurrences = 0usize;
        for ev in 0..9u32 {
            let naive = g.terminal_uses(EventId(ev));
            let occs = idx.occurrences(EventId(ev)).unwrap_or(&[]);
            prop_assert_eq!(occs.len(), naive.len());
            prop_assert_eq!(idx.knows_event(EventId(ev)), !naive.is_empty());
            for (&(loc, w), &nloc) in occs.iter().zip(naive.iter()) {
                prop_assert_eq!(loc, nloc);
                let want = expansions[loc.rule.index()] as f64 * g.at(loc).count as f64;
                prop_assert_eq!(w, want);
            }
            total_occurrences += occs.len();
        }
        prop_assert!(total_occurrences > 0);
    }

    /// Rule-metadata tables agree with the grammar's own recursive
    /// computations (lengths with exponents, first terminals) and the
    /// suffix arrays telescope correctly.
    #[test]
    fn rule_metadata_agrees_with_grammar(seq in structured()) {
        let trace = trace_of(&seq);
        let thread = trace.thread(0).unwrap();
        let g = &thread.grammar;
        let idx = GrammarIndex::build(g);
        prop_assert_eq!(idx.trace_len(), seq.len() as u64);
        for (id, rule) in g.iter_rules() {
            prop_assert_eq!(idx.meta(id).expanded_len, g.expanded_len(Symbol::Rule(id)));
            prop_assert_eq!(
                idx.first_terminal(Symbol::Rule(id)),
                g.first_terminal(Symbol::Rule(id))
            );
            prop_assert_eq!(idx.suffix_len(id, rule.body.len()), 0);
            for (pos, u) in rule.body.iter().enumerate() {
                prop_assert_eq!(
                    idx.suffix_len(id, pos),
                    idx.suffix_len(id, pos + 1) + idx.use_len(*u)
                );
            }
        }
    }

    /// The arena-backed body view is use-for-use identical to the
    /// `Vec`-backed rule bodies it was packed from — the walkers resolve
    /// every symbol through `GrammarIndex::body`/`use_at`, so this is the
    /// layer every prediction rests on.
    #[test]
    fn arena_bodies_agree_with_vec_backed_grammar(seq in structured()) {
        let trace = trace_of(&seq);
        let thread = trace.thread(0).unwrap();
        let g = &thread.grammar;
        let idx = thread.index();
        for (id, rule) in g.iter_rules() {
            prop_assert_eq!(idx.body(id), rule.body.as_slice());
            for pos in 0..rule.body.len() {
                let loc = pythia_core::grammar::Loc { rule: id, pos };
                prop_assert_eq!(idx.use_at(loc), rule.body[pos]);
            }
        }
    }

    /// Byte-identical round-trip: serializing a trace, reloading it, and
    /// rebuilding the arena index changes nothing — the reloaded grammar
    /// re-serializes to the same bytes, and its arena view matches the
    /// original's use for use.
    #[test]
    fn serialized_roundtrip_is_byte_identical(seq in vec(0u32..8, 1..250)) {
        let trace = trace_of(&seq);
        let bytes = trace.to_bytes();
        let reloaded = TraceData::from_bytes(&bytes).unwrap();
        prop_assert_eq!(
            &*reloaded.to_bytes(), &*bytes,
            "serialize→load→serialize is not a fixed point"
        );
        let (orig, back) = (trace.thread(0).unwrap(), reloaded.thread(0).unwrap());
        prop_assert_eq!(orig.grammar.unfold(), back.grammar.unfold());
        let (oi, bi) = (orig.index(), back.index());
        for (id, _) in orig.grammar.iter_rules() {
            prop_assert_eq!(oi.body(id), bi.body(id));
        }
    }
}

/// Delay predictions are untouched by the caching layer: spot-check that a
/// uniformly spaced recording still yields proportional delays.
#[test]
fn delay_prediction_unchanged_by_caching() {
    let seq: Vec<u32> = (0..60).flat_map(|_| [0, 1, 2]).collect();
    let trace = trace_of(&seq);
    let mut p = Predictor::new(&trace);
    for &s in &seq[..12] {
        p.observe(EventId(s));
    }
    for d in 1..=6usize {
        let ns = p.predict_delay_ns(d).unwrap();
        let want = 100.0 * d as f64;
        assert!((ns - want).abs() < 1.0, "distance {d}: {ns} vs {want}");
    }
}

/// Predictors built over the same thread share one index (Arc identity),
/// so constructing many predictors per trace costs one index build.
#[test]
fn predictors_share_one_index() {
    let seq: Vec<u32> = (0..40).flat_map(|_| [0, 1, 2, 3]).collect();
    let trace = trace_of(&seq);
    let a = Predictor::for_thread(&trace, 0, PredictorConfig::default()).unwrap();
    let b = Predictor::for_thread(&trace, 0, PredictorConfig::default()).unwrap();
    assert!(std::sync::Arc::ptr_eq(a.index(), b.index()));
}
