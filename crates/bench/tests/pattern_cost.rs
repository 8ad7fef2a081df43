//! The pattern sweep's cost on real recordings, in units no machine
//! changes.
//!
//! * The `(rule, entry state)` pairs it evaluates. A recording enters a
//!   rule in very few of the automaton's 65–128 states (1.1 per rule on
//!   average over this panel, under 3 at most), which is what lets the
//!   sweep cost what the grammar costs; a full transfer table per rule
//!   would fill `rules × states` entries.
//! * The allocations a query makes per trace once its automaton is built:
//!   a binding of the trace's vocabulary and the sweep's memo and stack
//!   per rank, not a subset construction per trace.
//!
//! The allocation counter is process-global, so the two tests take one
//! lock, and the count is the smallest of three windows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use pythia_apps::work::WorkScale;
use pythia_apps::{all_apps, harness::record_trace, WorkingSet};
use pythia_core::analyze::pattern::{parse, reached_pairs, run_query, Dfa};
use pythia_core::analyze::{PatternQuery, Severity};
use pythia_core::trace::TraceData;

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Held by each test from start to end: whatever one allocates, the other
/// must not count.
static COUNTING: Mutex<()> = Mutex::new(());

/// The benchmark's two queries (`analyze_apps`).
const QUERIES: [&str; 2] = ["MPI_Isend ~6 MPI_Waitall", "MPI_Irecv (!MPI_Wait){6}"];

/// Each app of the panel recorded on 4 ranks.
fn panel() -> Vec<(&'static str, Arc<TraceData>)> {
    let apps = all_apps();
    assert_eq!(apps.len(), 13);
    apps.iter()
        .map(|app| {
            let trace = record_trace(app.as_ref(), 4, WorkingSet::Small, WorkScale::ZERO);
            (app.name(), trace)
        })
        .collect()
}

#[test]
fn sweep_fills_a_few_memo_entries_per_rule_on_the_app_panel() {
    let _counting = COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    for (app, trace) in panel() {
        for query in QUERIES {
            let dfa = Dfa::compile(&parse(query).unwrap(), trace.registry()).unwrap();
            for (rank, thread) in trace.threads().iter().enumerate() {
                let rules = thread.grammar.rule_count();
                let pairs = reached_pairs(&thread.grammar, &dfa);
                assert!(
                    (rules..rules * 4).contains(&pairs),
                    "{app} rank {rank}, '{query}': {pairs} pairs for {rules} rules, {} states",
                    dfa.states()
                );
            }
        }
    }
}

/// Heap allocations of one `run_query`, the smallest of three windows:
/// what the query itself allocates it allocates in every window.
fn query_allocations(query: &PatternQuery, trace: &TraceData, sound: &[bool]) -> usize {
    (0..3)
        .map(|_| {
            let before = ALLOCS.load(Ordering::Relaxed);
            std::hint::black_box(run_query(query, trace, sound));
            ALLOCS.load(Ordering::Relaxed) - before
        })
        .min()
        .unwrap()
}

#[test]
fn a_built_query_allocates_per_trace_what_the_sweep_needs() {
    let _counting = COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    let panel = panel();
    let queries: Vec<PatternQuery> = QUERIES
        .iter()
        .map(|q| PatternQuery::new(q, Severity::Info, false).unwrap())
        .collect();
    let sound = vec![true; 4];
    // The first evaluation builds the automaton.
    for query in &queries {
        std::hint::black_box(run_query(query, &panel[0].1, &sound));
    }
    for (app, trace) in &panel {
        for query in &queries {
            let n = query_allocations(query, trace, &sound);
            // Measured 25–34 (4 where no queried name occurs); 132–204 (28)
            // when every trace ran its own subset construction.
            assert!(n <= 48, "{app}, '{}': {n} allocations", query.source);
        }
    }
}
