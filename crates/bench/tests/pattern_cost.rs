//! The pattern sweep's cost on real recordings, in a unit no machine
//! changes: the `(rule, entry state)` pairs it evaluates. A recording
//! enters a rule in very few of the automaton's 65–128 states (1.1 per
//! rule on average over this panel, under 3 at most), which is what lets
//! the sweep cost what the grammar costs; a full transfer table per rule
//! would fill `rules × states` entries.

use pythia_apps::work::WorkScale;
use pythia_apps::{all_apps, harness::record_trace, WorkingSet};
use pythia_core::analyze::pattern::{parse, reached_pairs, Dfa};

/// The benchmark's two queries (`analyze_apps`).
const QUERIES: [&str; 2] = ["MPI_Isend ~6 MPI_Waitall", "MPI_Irecv (!MPI_Wait){6}"];

#[test]
fn sweep_fills_a_few_memo_entries_per_rule_on_the_app_panel() {
    let apps = all_apps();
    assert_eq!(apps.len(), 13);
    for app in apps {
        let trace = record_trace(app.as_ref(), 4, WorkingSet::Small, WorkScale::ZERO);
        for query in QUERIES {
            let dfa = Dfa::compile(&parse(query).unwrap(), trace.registry()).unwrap();
            for (rank, thread) in trace.threads().iter().enumerate() {
                let rules = thread.grammar.rule_count();
                let pairs = reached_pairs(&thread.grammar, &dfa);
                assert!(
                    (rules..rules * 4).contains(&pairs),
                    "{} rank {rank}, '{query}': {pairs} pairs for {rules} rules, {} states",
                    app.name(),
                    dfa.states()
                );
            }
        }
    }
}
