//! The soundness property behind `pythia-analyze`: protocol verdicts
//! computed on the **compressed grammar** equal verdicts computed on the
//! **expanded event stream**, for arbitrary multi-rank sessions.
//!
//! `verify()` is pure over [`RankProfile`]s, so the property decomposes:
//! if `profile_from_grammar == profile_from_events` for every rank, the
//! diagnostic lists are identical. The tests check both layers anyway —
//! profile equality (the load-bearing lemma) and end-to-end verdict
//! equality (what the CLI actually reports).

use std::ops::Range;

use proptest::collection::vec;
use proptest::prelude::*;

use pythia_core::analyze::pattern::{match_grammar, parse, Dfa};
use pythia_core::analyze::protocol::{
    collective_divergence_point, profile_from_events, profile_from_grammar, verify, EventClass,
};
use pythia_core::analyze::race::{detect, summary_from_events, summary_from_grammar};
use pythia_core::analyze::ClassTable;
use pythia_core::event::{EventId, EventRegistry};
use pythia_core::record::{RecordConfig, Recorder};

/// A synthetic MPI vocabulary over `ranks` peers: point-to-point calls to
/// every peer (blocking and not), a wildcard receive, waits, and a few
/// collectives. Returns the registry plus the flat event-id list the
/// generated streams index into.
fn vocabulary(ranks: i64) -> (EventRegistry, Vec<EventId>) {
    let mut reg = EventRegistry::new();
    let mut ids = Vec::new();
    for peer in 0..ranks {
        ids.push(reg.intern("MPI_Send", Some(peer)));
        ids.push(reg.intern("MPI_Isend", Some(peer)));
        ids.push(reg.intern("MPI_Recv", Some(peer)));
        ids.push(reg.intern("MPI_Irecv", Some(peer)));
    }
    ids.push(reg.intern("MPI_Recv", Some(-1))); // MPI_ANY_SOURCE
    ids.push(reg.intern("MPI_Wait", None));
    ids.push(reg.intern("MPI_Waitall", None));
    ids.push(reg.intern("MPI_Barrier", Some(0)));
    ids.push(reg.intern("MPI_Allreduce", Some(8)));
    ids.push(reg.intern("MPI_Allreduce", Some(64)));
    ids.push(reg.intern("MPI_Bcast", Some(0)));
    ids.push(reg.intern("MPI_Comm_split", Some(1)));
    ids.push(reg.intern("compute_region", None));
    (reg, ids)
}

/// Records `events` into a grammar the way the runtime does.
fn grammar_of(events: &[EventId]) -> pythia_core::trace::ThreadTrace {
    let mut rec = Recorder::new(RecordConfig {
        timestamps: false,
        validate: false,
    });
    for &e in events {
        rec.record(e);
    }
    rec.finish_thread().unwrap()
}

/// A random loop body of `body` events repeated `reps` times, plus a
/// random prologue and epilogue that land partial loop iterations on rule
/// borders (and decide which DFA state a query enters the loop in).
fn looped(body: Range<usize>, reps: Range<usize>) -> impl Strategy<Value = Vec<usize>> {
    (
        vec(0usize..22, 0..8), // prologue
        vec(0usize..22, body), // loop body
        reps,                  // iterations
        vec(0usize..22, 0..8), // epilogue
    )
        .prop_map(|(pro, body, reps, epi)| {
            let mut seq = pro;
            for _ in 0..reps {
                seq.extend(&body);
            }
            seq.extend(&epi);
            seq
        })
}

/// One rank's stream: a loop body repeated many times, so the reduction
/// emits rules with repetition exponents.
fn rank_stream() -> impl Strategy<Value = Vec<usize>> {
    looped(1..10, 1..24)
}

/// A short body repeated far more often than any query is long: the
/// grammar's exponents outlast the orbit of the entry state, so the
/// repetitions before the DFA settles are walked and the rest accounted
/// for arithmetically, and with a body shorter than the query's window
/// the first hit falls in a later repetition.
fn periodic_stream() -> impl Strategy<Value = Vec<usize>> {
    looped(1..4, 40..400)
}

proptest! {
    // 256 random sessions of 3 ranks each (ISSUE acceptance floor).
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn compressed_verdicts_equal_expanded_verdicts(
        s0 in rank_stream(),
        s1 in rank_stream(),
        s2 in rank_stream(),
    ) {
        let (reg, ids) = vocabulary(3);
        let classes = ClassTable::from_registry(&reg);
        let streams: Vec<Vec<EventId>> = [s0, s1, s2]
            .iter()
            .map(|s| s.iter().map(|&i| ids[i % ids.len()]).collect())
            .collect();

        let mut from_grammar = Vec::new();
        let mut from_events = Vec::new();
        for events in &streams {
            let t = grammar_of(events);
            // The lemma: the bottom-up grammar sweep produces the exact
            // profile of the expanded stream.
            let pg = profile_from_grammar(&t.grammar, &classes);
            let pe = profile_from_events(events.iter().copied(), &classes);
            prop_assert_eq!(&pg, &pe);
            from_grammar.push(pg);
            from_events.push(pe);
        }
        // End-to-end: identical diagnostics, byte for byte.
        prop_assert_eq!(verify(&from_grammar), verify(&from_events));
    }
}

/// A vocabulary for the race detector: shared-object accesses interleaved
/// with collectives (epoch boundaries) and non-synchronizing noise.
fn race_vocabulary() -> (EventRegistry, Vec<EventId>) {
    let mut reg = EventRegistry::new();
    let mut ids = Vec::new();
    for obj in [0x10i64, 0x20] {
        ids.push(reg.intern("store", Some(obj)));
        ids.push(reg.intern("load", Some(obj)));
    }
    ids.push(reg.intern("MPI_Barrier", Some(0)));
    ids.push(reg.intern("MPI_Allreduce", Some(8)));
    ids.push(reg.intern("MPI_Send", Some(1)));
    ids.push(reg.intern("MPI_Wait", None));
    ids.push(reg.intern("compute_region", None));
    (reg, ids)
}

/// Strips grammar anchors from a diagnostic (event-stream summaries carry
/// none); everything else — severity, message, thread, event index — must
/// survive the comparison untouched.
fn unanchored(mut d: pythia_core::analyze::Diagnostic) -> pythia_core::analyze::Diagnostic {
    d.rule = None;
    d.pos = None;
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // ISSUE 9 proof obligation: race summaries (and the verdicts derived
    // from them) computed on the compressed grammar equal those computed
    // on the expanded stream, including under repetition exponents.
    #[test]
    fn compressed_race_verdicts_equal_expanded(
        s0 in rank_stream(),
        s1 in rank_stream(),
        s2 in rank_stream(),
    ) {
        let (reg, ids) = race_vocabulary();
        let classes = ClassTable::from_registry(&reg);
        let streams: Vec<Vec<EventId>> = [s0, s1, s2]
            .iter()
            .map(|s| s.iter().map(|&i| ids[i % ids.len()]).collect())
            .collect();

        let mut from_grammar = Vec::new();
        let mut from_events = Vec::new();
        for events in &streams {
            let t = grammar_of(events);
            let sg = summary_from_grammar(&t.grammar, &classes);
            let se = summary_from_events(events.iter().copied(), &classes);
            // The lemma: both domains denote the same epoch sets —
            // identical totals and identical (epoch, min index) members
            // per object and access kind.
            prop_assert_eq!(sg.collectives, se.collectives);
            prop_assert_eq!(sg.events, se.events);
            for (a, b) in [(&sg.reads, &se.reads), (&sg.writes, &se.writes)] {
                let ka: Vec<_> = a.keys().collect();
                let kb: Vec<_> = b.keys().collect();
                prop_assert_eq!(ka, kb);
                for (obj, set) in a {
                    prop_assert_eq!(set.materialize(), b[obj].materialize(), "object {:#x}", obj);
                }
            }
            from_grammar.push(sg);
            from_events.push(se);
        }
        // End-to-end: identical diagnostics once grammar anchors (which
        // the event domain cannot carry) are stripped.
        let dg: Vec<_> = detect(&from_grammar).into_iter().map(unanchored).collect();
        let de: Vec<_> = detect(&from_events).into_iter().map(unanchored).collect();
        prop_assert_eq!(dg, de);
    }

    // ISSUE 9 proof obligation for the pattern engine: the demand-driven
    // sweep over (rule, entry state) pairs reports exactly what a linear
    // DFA scan of the expanded stream reports — count, first hit, and end
    // state — on loop-shaped rank streams and on long periodic ones.
    #[test]
    fn compressed_match_results_equal_expanded(s in rank_stream(), p in periodic_stream()) {
        const QUERIES: &[&str] = &[
            "isend ~4 wait",
            "send (!wait){3}",
            "send | recv",
            "barrier . allreduce",
            "isend(1) (!waitall){2} waitall",
            "(send | isend){2,4} barrier",
            // The benchmark's two window-6 queries, one per desugaring.
            "MPI_Isend ~6 MPI_Waitall",
            "MPI_Irecv (!MPI_Wait){6}",
            // Names the vocabulary lacks: a DFA with no accepting state.
            "MPI_Put ~3 MPI_Win_fence",
        ];
        let (reg, ids) = vocabulary(3);
        for stream in [s, p] {
            let events: Vec<EventId> = stream.iter().map(|&i| ids[i % ids.len()]).collect();
            let t = grammar_of(&events);
            for q in QUERIES {
                let dfa = Dfa::compile(&parse(q).unwrap(), &reg).unwrap();
                let compressed = match_grammar(&t.grammar, &dfa);
                let expanded = dfa.match_events(events.iter().copied());
                prop_assert_eq!(compressed, expanded, "query {:?}", q);
                if q.contains("MPI_Put") {
                    prop_assert!((0..dfa.states() as u32).all(|state| !dfa.accepting(state)));
                    prop_assert_eq!(compressed.count, 0);
                }
            }
        }
    }

    // Exact divergence localization: the binary search over prefix hashes
    // agrees with a naive first-difference scan of the expanded collective
    // sequences, and the reported event index is the real position of
    // that collective on the reference rank.
    #[test]
    fn divergence_point_equals_naive_scan(s0 in rank_stream(), s1 in rank_stream()) {
        let (reg, ids) = vocabulary(2);
        let classes = ClassTable::from_registry(&reg);
        let streams: Vec<Vec<EventId>> = [s0, s1]
            .iter()
            .map(|s| s.iter().map(|&i| ids[i % ids.len()]).collect())
            .collect();
        // (token, event index) of every collective, per rank.
        let cols: Vec<Vec<(u64, u64)>> = streams
            .iter()
            .map(|events| {
                events
                    .iter()
                    .enumerate()
                    .filter_map(|(i, &e)| match classes.class(e) {
                        EventClass::Collective { token } => Some((token, i as u64)),
                        _ => None,
                    })
                    .collect()
            })
            .collect();
        let minlen = cols[0].len().min(cols[1].len());
        let first_diff = (0..minlen).find(|&i| cols[0][i].0 != cols[1][i].0);
        let expect = match first_diff {
            Some(k) => Some(k as u64),
            None if cols[0].len() != cols[1].len() => Some(minlen as u64),
            None => None,
        };

        let g0 = grammar_of(&streams[0]).grammar;
        let g1 = grammar_of(&streams[1]).grammar;
        let got = collective_divergence_point(&g0, &g1, &classes);
        prop_assert_eq!(got.map(|(k, _)| k), expect);
        if let Some((k, index)) = got {
            // The index anchors the divergent ordinal on rank 0 (the
            // reference side passed second), clamped to its last
            // collective when rank 0 is the shorter sequence.
            let want = if (k as usize) < cols[1].len() {
                Some(cols[1][k as usize].1)
            } else {
                cols[1].last().map(|&(_, i)| i)
            };
            prop_assert_eq!(index, want);
        }
    }
}

/// Regression: a wildcard `MPI_Recv(-1)` absorbs a directed send in both
/// domains, and two competing senders surface the same ambiguity warning.
#[test]
fn any_source_wildcard_consistent() {
    let (reg, _) = vocabulary(3);
    let mut reg = reg;
    let send1 = reg.intern("MPI_Send", Some(1)); // used by ranks 0 and 2
    let any = reg.intern("MPI_Recv", Some(-1));
    let classes = ClassTable::from_registry(&reg);

    // Rank 1 posts two wildcard receives; ranks 0 and 2 each send once.
    let streams: Vec<Vec<EventId>> = vec![vec![send1], vec![any, any], vec![send1]];
    let pg: Vec<_> = streams
        .iter()
        .map(|s| profile_from_grammar(&grammar_of(s).grammar, &classes))
        .collect();
    let pe: Vec<_> = streams
        .iter()
        .map(|s| profile_from_events(s.iter().copied(), &classes))
        .collect();
    assert_eq!(pg, pe);

    let diags = verify(&pg);
    assert_eq!(diags, verify(&pe));
    // Both sends absorbed, but by a shared wildcard pool: ambiguous.
    assert!(
        diags.iter().any(|d| d.code == "any-source-ambiguity"),
        "{diags:?}"
    );
    assert!(
        !diags.iter().any(|d| d.code == "unmatched-send"),
        "{diags:?}"
    );
}

/// Regression: repetition exponents crossing a rule border. `k` repeats of
/// a send compress into `SymbolUse { count: k }` (and, for composite
/// bodies, into rules referenced with exponents); the profile must weight
/// by the full expansion count, and one missing receive on the peer must
/// tip the verdict in both domains identically.
#[test]
fn repetition_exponent_boundary_consistent() {
    let mut reg = EventRegistry::new();
    let send = reg.intern("MPI_Send", Some(1));
    let wait = reg.intern("MPI_Wait", None);
    let recv = reg.intern("MPI_Recv", Some(0));

    for k in [2usize, 3, 17, 64] {
        let classes = ClassTable::from_registry(&reg);
        // (send wait)^k send — the trailing send breaks the final
        // repetition across the rule border.
        let mut s0 = Vec::new();
        for _ in 0..k {
            s0.push(send);
            s0.push(wait);
        }
        s0.push(send);
        // Peer receives only k of the k+1 sends.
        let s1 = vec![recv; k];

        let pg: Vec<_> = [&s0, &s1]
            .iter()
            .map(|s| profile_from_grammar(&grammar_of(s).grammar, &classes))
            .collect();
        let pe: Vec<_> = [&s0, &s1]
            .iter()
            .map(|s| profile_from_events(s.iter().copied(), &classes))
            .collect();
        assert_eq!(pg, pe, "k={k}");
        assert_eq!(pg[0].sends.get(&1), Some(&(k as u64 + 1)), "k={k}");

        let diags = verify(&pg);
        assert_eq!(diags, verify(&pe), "k={k}");
        let unmatched = diags
            .iter()
            .find(|d| d.code == "unmatched-send")
            .unwrap_or_else(|| panic!("k={k}: missing unmatched-send in {diags:?}"));
        assert!(
            unmatched.message.contains("1 send(s)"),
            "k={k}: {}",
            unmatched.message
        );
    }
}
