//! Steady-state allocation accounting for the hot paths.
//!
//! The contention-free hot-path contract says the record and observe
//! paths perform **zero heap allocations per event at steady state**:
//! every per-event buffer either has reserved capacity
//! ([`Recorder::reserve`]) or is reused in place (observe rewrites each
//! tracked path's frames without reallocating, with one candidate or
//! several). A query allocates exactly once — the distribution it returns
//! — and not at all when the oracle has nothing to say; the delay and
//! sequence queries allocate the same at every distance. This harness pins
//! that with a counting global allocator: warm the path up, snapshot the
//! allocation counter, run a measurement window, and require the counter
//! unchanged.
//!
//! The allocation counter is process-global, so the measurements
//! run sequentially inside a single `#[test]` — a second libtest thread
//! warming up its own scenario (or the harness spawning one) would
//! bump the counter mid-window and fail the accounting spuriously.
//!
//! The same counter gates the pattern sweep, which is not allocation-free
//! but must allocate for the pairs it reaches, never per body symbol; the
//! two tests take one lock so that neither counts the other's work.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use pythia_core::analyze::pattern::{match_grammar, parse, Dfa};
use pythia_core::analyze::{analyze_trace, AnalyzeConfig, Severity};
use pythia_core::event::{EventId, EventRegistry};
use pythia_core::grammar::GrammarIndex;
use pythia_core::persist::PersistConfig;
use pythia_core::predict::{Predictor, PredictorConfig};
use pythia_core::record::{RecordConfig, Recorder};
use pythia_core::resilience::{BreakerConfig, FaultPlan, HardenedOracle, ResilienceConfig};

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

/// Runs `f` and returns how many heap allocations it performed.
fn allocations_in(f: impl FnOnce()) -> usize {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Runs `attempt` — which re-arms the path's reservations and returns
/// the allocation count of one measured window — up to three times,
/// settling on the smallest count, 0 as soon as one window is
/// allocation-free. The counter is process-global, so a bump from
/// outside the measured path (another runtime thread, allocator
/// bookkeeping) can land inside one window by bad luck — but what the
/// path itself allocates it allocates in *every* window, so the cleanest
/// window proves the path while a persistent count is still reported
/// faithfully.
fn settled_allocations(mut attempt: impl FnMut() -> usize) -> usize {
    let mut n = usize::MAX;
    for _ in 0..3 {
        n = n.min(attempt());
        if n == 0 {
            break;
        }
    }
    n
}

const WINDOW_EVENTS: usize = 4_096;

/// Held by each test from start to end: whatever one allocates, the other
/// must not count.
static COUNTING: Mutex<()> = Mutex::new(());

#[test]
fn hot_paths_are_allocation_free_at_steady_state() {
    let _counting = COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    in_memory_record();
    durable_record();
    observe();
    observe_multi_candidate();
    query();
    finish();
}

fn in_memory_record() {
    let open = |_| {
        Recorder::new(RecordConfig {
            timestamps: true,
            validate: false,
        })
    };
    record_windows("in-memory", open);
}

fn durable_record() {
    let dir = std::env::temp_dir().join(format!("pythia-zero-alloc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.pythia");
    // Flush thresholds above every scenario's stream: the per-event path
    // stages raw ids/timestamps into reserved buffers; the batch SWAR
    // encode and the journal write happen at the flush boundary, outside
    // the windows.
    let persist = PersistConfig {
        flush_events: WINDOW_EVENTS * 4,
        flush_bytes: usize::MAX,
        snapshot_events: 0,
        ..PersistConfig::default()
    };
    let open = |rank| {
        let config = RecordConfig {
            timestamps: true,
            validate: false,
        };
        Recorder::durable(config, &path, rank, persist.clone()).unwrap()
    };
    record_windows("durable", open);
    pythia_core::persist::remove_sidecars(&path);
    std::fs::remove_dir_all(&dir).ok();
}

/// `(x a b c d e x)^16`: consecutive iterations meet in a run `x^2`.
fn lulesh_shaped(separator: u32) -> Vec<u32> {
    let mut block = [0, 1, 2, 3, 4, 5, 0].repeat(16);
    block.push(separator);
    block
}

/// `((abc)^6 e (abc)^114)^2`: the cursor enters this loop at a phase
/// offset inside `(abc)^6`.
fn sp_shaped(separator: u32) -> Vec<u32> {
    let mut iteration = [0, 1, 2].repeat(6);
    iteration.push(3);
    iteration.extend([0, 1, 2].repeat(114));
    let mut block = iteration.repeat(2);
    block.push(separator);
    block
}

/// Warms a recorder from `open(rank)` into steady state and requires its
/// measurement windows to allocate nothing: first a pure repetition
/// stream, which folds into one symbol use without engaging the loop
/// cursor; then the two loop shapes. Each loop-shaped block ends in an
/// event never seen before, so every block restarts its loop: the cursor
/// mismatches, settles, and engages again — at the next iteration
/// boundary in the Lulesh shape, at a phase offset (folding the adopted
/// head) in the SP shape. The root grows by a few uses per block; its
/// amortized doubling lands in at most one of the attempted windows.
fn record_windows(what: &str, open: impl Fn(usize) -> Recorder) {
    let mut rec = open(0);
    let mut t = 0u64;
    for _ in 0..64 {
        t += 10;
        rec.record_at(EventId(3), t);
    }
    let mut fed = 0u64;
    let n = settled_allocations(|| {
        rec.reserve(WINDOW_EVENTS);
        fed += WINDOW_EVENTS as u64;
        allocations_in(|| {
            for _ in 0..WINDOW_EVENTS {
                t += 10;
                rec.record_at(EventId(3), t);
            }
        })
    });
    assert_eq!(n, 0, "{what} record path allocated {n} times");
    assert_eq!(rec.event_count(), 64 + fed);
    rec.finish_thread().unwrap();

    let shapes = [
        ("Lulesh-shaped", lulesh_shaped as fn(u32) -> Vec<u32>),
        ("SP-shaped", sp_shaped),
    ];
    for (rank, (shape, block)) in shapes.into_iter().enumerate() {
        let mut rec = open(rank + 1);
        let mut separator = 100;
        let mut blocks = |count: usize| -> Vec<EventId> {
            let events = (0..count).flat_map(|_| {
                separator += 1;
                block(separator)
            });
            events.map(EventId).collect()
        };
        let mut t = 0u64;
        let mut feed = |rec: &mut Recorder, events: &[EventId]| {
            for &e in events {
                t += 10;
                rec.record_at(e, t);
            }
        };
        let warm_up = blocks(6);
        feed(&mut rec, &warm_up);
        let mut fed = warm_up.len() as u64;
        let n = settled_allocations(|| {
            let window = blocks(4);
            rec.reserve(window.len());
            fed += window.len() as u64;
            allocations_in(|| feed(&mut rec, &window))
        });
        assert_eq!(
            n, 0,
            "{what} record path allocated {n} times on the {shape} loop"
        );
        assert_eq!(rec.event_count(), fed);
        rec.finish_thread().unwrap();
    }
}

fn observe() {
    // A cyclic trace: after the initial seed the predictor tracks a
    // single candidate, and the in-place advance fast path reuses the
    // path's frame stack without reallocating.
    let trace = trace_of((0..4_000).flat_map(|_| [0u32, 1, 2, 3]));
    let mut p = Predictor::for_thread(&trace, 0, PredictorConfig::default()).unwrap();
    // Warm up: seed + settle into single-candidate tracking, long enough
    // to grow the frame stack to its maximum depth.
    for _ in 0..64 {
        for e in [0u32, 1, 2, 3] {
            p.observe(EventId(e));
        }
    }
    assert_eq!(p.candidate_count(), 1, "warm-up should settle tracking");
    let n = settled_allocations(|| {
        // The in-place fast path reuses the frame stack, so no
        // reservation to re-arm between attempts.
        allocations_in(|| {
            for _ in 0..WINDOW_EVENTS / 4 {
                for e in [0u32, 1, 2, 3] {
                    p.observe(EventId(e));
                }
            }
        })
    });
    assert_eq!(n, 0, "observe fast path allocated {n} times");
    assert_eq!(p.candidate_count(), 1);
}

/// A recording of `seq` without timestamps.
fn trace_of(seq: impl IntoIterator<Item = u32>) -> pythia_core::trace::TraceData {
    let mut rec = Recorder::new(RecordConfig {
        timestamps: false,
        validate: false,
    });
    for e in seq {
        rec.record(EventId(e));
    }
    rec.finish(&EventRegistry::new()).unwrap()
}

fn observe_multi_candidate() {
    // The same long loop in three contexts: a predictor that starts inside
    // one cannot tell which, and tracks all three for as long as the loop
    // lasts — each advanced in place, none cloned, nothing hashed.
    let looped = |runs: usize| (0..runs).flat_map(|_| [0u32, 1, 2]);
    let trace = trace_of(
        [10].into_iter()
            .chain(looped(6_000))
            .chain([11, 12])
            .chain(looped(7_000))
            .chain([13, 14])
            .chain(looped(8_000))
            .chain([15]),
    );
    let mut p = Predictor::for_thread(&trace, 0, PredictorConfig::default()).unwrap();
    for _ in 0..64 {
        for e in [0u32, 1, 2] {
            p.observe(EventId(e));
        }
    }
    assert_eq!(p.candidate_count(), 3, "the three contexts stay open");
    let n = settled_allocations(|| {
        allocations_in(|| {
            for _ in 0..WINDOW_EVENTS / 3 {
                for e in [0u32, 1, 2] {
                    p.observe(EventId(e));
                }
            }
        })
    });
    assert_eq!(n, 0, "multi-candidate observe allocated {n} times");
    assert_eq!(p.candidate_count(), 3);
    assert_eq!(p.stats().reseeded, 1);
}

fn query() {
    let queried = |p: &Predictor, distance: usize| {
        settled_allocations(|| {
            allocations_in(|| {
                std::hint::black_box(p.predict(distance));
            })
        })
    };
    // A tracked position: the answer's distribution is the one allocation,
    // whatever the distance.
    let trace = trace_of((0..4_000).flat_map(|_| [0u32, 1, 2, 3]));
    let mut p = Predictor::for_thread(&trace, 0, PredictorConfig::default()).unwrap();
    for _ in 0..64 {
        for e in [0u32, 1, 2, 3] {
            p.observe(EventId(e));
        }
    }
    assert_eq!(p.candidate_count(), 1);
    for distance in [1, 8, 64] {
        let n = queried(&p, distance);
        assert_eq!(n, 1, "predict({distance}) allocated {n} times");
    }
    // Out of sync there is no distribution to allocate.
    p.desynchronize();
    let n = queried(&p, 1);
    assert_eq!(n, 0, "uninformed predict allocated {n} times");

    // A freshly seeded position inside `a^8`: its offset is unknown, and a
    // query past the run walks one arm per offset — reading the same
    // frames, cloning none.
    let trace = trace_of((0..500).flat_map(|_| [0u32, 0, 0, 0, 0, 0, 0, 0, 1]));
    let mut p = Predictor::for_thread(&trace, 0, PredictorConfig::default()).unwrap();
    p.observe(EventId(0));
    assert_eq!(p.candidate_count(), 1);
    let n = queried(&p, 64);
    assert_eq!(n, 1, "unknown-offset predict(64) allocated {n} times");
    assert_eq!(p.predict(64).distribution.len(), 2);
}

/// `finish_thread` replays the timestamps through the grammar with scratch
/// sized by the grammar: sixteen times the events in the same loop nest
/// (the same rules, larger exponents) cost the same allocations.
fn finish() {
    let [n_short, n_long] = [2usize, 32].map(|outer| {
        let mut rec = Recorder::new(RecordConfig {
            timestamps: true,
            validate: false,
        });
        let mut t = 0u64;
        for _ in 0..outer {
            for _ in 0..4 {
                for _ in 0..3 {
                    for e in [0u32, 1, 1, 2] {
                        t += 10;
                        rec.record_at(EventId(e), t);
                    }
                }
                t += 10;
                rec.record_at(EventId(3), t);
            }
            t += 10;
            rec.record_at(EventId(4), t);
        }
        assert_eq!(rec.event_count(), outer as u64 * 53);
        allocations_in(|| {
            std::hint::black_box(rec.finish_thread().unwrap());
        })
    });
    assert!(
        n_short.abs_diff(n_long) <= 4,
        "finish allocations follow the stream length: {n_short} -> {n_long}"
    );
    assert!(n_long < 200, "finish allocated {n_long} times");
}

/// The greedy chain behind `predict_delay_ns` and `predict_sequence`
/// writes each step's successor into one of two reused frame buffers: on a
/// tracked, timestamped loop both queries allocate the same at every
/// distance — the two buffers, and the returned events — never per step.
#[test]
fn chain_queries_allocate_the_same_at_every_distance() {
    let _counting = COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    let mut rec = Recorder::new(RecordConfig::default());
    for (i, e) in (0..4_000).flat_map(|_| [0u32, 1, 2, 3]).enumerate() {
        rec.record_at(EventId(e), 100 * i as u64);
    }
    let trace = rec.finish(&EventRegistry::new()).unwrap();
    let mut p = Predictor::for_thread(&trace, 0, PredictorConfig::default()).unwrap();
    for _ in 0..64 {
        for e in [0u32, 1, 2, 3] {
            p.observe(EventId(e));
        }
    }
    assert_eq!(p.candidate_count(), 1);
    let counts = [1usize, 8, 64].map(|d| {
        assert!(p.predict_delay_ns(d).is_some());
        assert_eq!(p.predict_sequence(d).len(), d);
        let delay = settled_allocations(|| {
            allocations_in(|| {
                std::hint::black_box(p.predict_delay_ns(d));
            })
        });
        let sequence = settled_allocations(|| {
            allocations_in(|| {
                std::hint::black_box(p.predict_sequence(d));
            })
        });
        (delay, sequence)
    });
    assert!(
        counts.iter().all(|&c| c == counts[0]),
        "(predict_delay_ns, predict_sequence) allocations at d = 1, 8, 64: {counts:?}"
    );
    assert!(
        counts[0].0 <= 3 && counts[0].1 <= 3,
        "(predict_delay_ns, predict_sequence) allocated {:?} times",
        counts[0]
    );
}

/// The hardened facade adds no allocation of its own at steady state: an
/// `event` allocates nothing, a `predict_event(d)` exactly what the bare
/// `Predictor::predict(d)` does at d = 1, 8 and 64 (the watchdog's FIFOs
/// reuse their storage), and `predict_delay(1)` what the bare delay query
/// does. The same holds after a burst of `MAX_PENDING + 50` queries at one
/// distance has drained.
#[test]
fn facade_allocates_what_the_predictor_does() {
    /// `resilience::MAX_PENDING`, the watchdog's bound.
    const MAX_PENDING: usize = 1024;
    const CYCLE: [u32; 4] = [0, 1, 2, 3];
    const DISTANCES: [usize; 3] = [1, 8, 64];
    let _counting = COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    let mut rec = Recorder::new(RecordConfig::default());
    for (i, e) in (0..4_000).flat_map(|_| CYCLE).enumerate() {
        rec.record_at(EventId(e), 100 * i as u64);
    }
    let trace = rec.finish(&EventRegistry::new()).unwrap();
    // Fault-free, and a breaker that scores every prediction but never
    // opens: every query computes.
    let tracking = ResilienceConfig {
        breaker: BreakerConfig {
            max_error_rate: 1.0,
            ..BreakerConfig::default()
        },
        faults: Some(FaultPlan::none()),
        ..ResilienceConfig::default()
    };
    let mut hard =
        HardenedOracle::try_predict(&trace, 0, PredictorConfig::default(), tracking).unwrap();
    let mut bare = Predictor::for_thread(&trace, 0, PredictorConfig::default()).unwrap();

    // One window of the loop, both sides fed alike: (allocations by the
    // facade's events, by its queries per distance, by the bare queries
    // per distance).
    let mut window = |hard: &mut HardenedOracle, cycles: usize| {
        let (mut events, mut queries, mut bare_queries) = (0, [0; 3], [0; 3]);
        for _ in 0..cycles {
            for e in CYCLE {
                events += allocations_in(|| {
                    hard.event(EventId(e));
                });
                bare.observe(EventId(e));
                for (k, d) in DISTANCES.into_iter().enumerate() {
                    queries[k] += allocations_in(|| {
                        std::hint::black_box(hard.predict_event(d));
                    });
                    bare_queries[k] += allocations_in(|| {
                        std::hint::black_box(bare.predict(d));
                    });
                }
            }
        }
        (events, queries, bare_queries)
    };
    // The cleanest of three windows (see `settled_allocations`).
    fn steady(
        window: &mut impl FnMut(&mut HardenedOracle, usize) -> (usize, [usize; 3], [usize; 3]),
        hard: &mut HardenedOracle,
        what: &str,
    ) {
        let mut best = None;
        for _ in 0..3 {
            let (events, queries, bare_queries) = window(hard, WINDOW_EVENTS / 4);
            let excess = events
                + (0..3)
                    .map(|k| queries[k].abs_diff(bare_queries[k]))
                    .sum::<usize>();
            if best.is_none_or(|(e, _)| excess < e) {
                best = Some((excess, (events, queries, bare_queries)));
            }
            if excess == 0 {
                break;
            }
        }
        let (_, (events, queries, bare_queries)) = best.unwrap();
        assert_eq!(events, 0, "{what}: facade events allocated {events} times");
        assert_eq!(
            queries, bare_queries,
            "{what}: predict_event vs Predictor::predict allocations at d = {DISTANCES:?}"
        );
    }

    // Warm up: every distance's FIFO exists and has grown to its steady
    // length (64 outstanding at d = 64).
    window(&mut hard, 64);
    steady(&mut window, &mut hard, "steady state");

    for _ in 0..MAX_PENDING + 50 {
        std::hint::black_box(hard.predict_event(64));
    }
    // Drain the burst: its targets all fall due 64 events on.
    window(&mut hard, 32);
    steady(&mut window, &mut hard, "after a burst");
    assert_eq!(hard.resilience_stats().suppressed, 0);

    let delay = settled_allocations(|| {
        allocations_in(|| {
            std::hint::black_box(hard.predict_delay(1));
        })
    });
    let bare_delay = settled_allocations(|| {
        allocations_in(|| {
            std::hint::black_box(bare.predict_delay_ns(1));
        })
    });
    assert!(hard.predict_delay(1).is_some());
    assert_eq!(delay, bare_delay, "predict_delay(1) vs predict_delay_ns(1)");
}

/// `match_grammar` allocates its memo and its work stack, sized by the
/// rules it reaches — not three vectors per body symbol: a grammar ten
/// times larger, swept with the same DFA, costs the same number of
/// allocations.
#[test]
fn pattern_sweep_allocations_do_not_follow_grammar_size() {
    const PHASES: [usize; 2] = [20, 200];
    // Setting up allocates too: not inside the other test's windows.
    let _counting = COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    let mut reg = EventRegistry::new();
    let isend = reg.intern("MPI_Isend", Some(1));
    let wait = reg.intern("MPI_Wait", None);
    let phase: Vec<EventId> = (0..PHASES[1])
        .map(|i| reg.intern("compute_phase", Some(i as i64)))
        .collect();
    let dfa = Dfa::compile(&parse("MPI_Isend (!MPI_Wait){6}").unwrap(), &reg).unwrap();

    // One loop per phase: a rule and a root unit each.
    let [small, large] = PHASES.map(|phases| {
        let mut rec = Recorder::new(RecordConfig {
            timestamps: false,
            validate: false,
        });
        for &p in &phase[..phases] {
            for _ in 0..5 {
                for e in [isend, p, p, wait] {
                    rec.record(e);
                }
            }
        }
        rec.finish_thread().unwrap().grammar
    });
    let symbols = |g: &pythia_core::grammar::Grammar| -> usize {
        g.iter_rules().map(|(_, rule)| rule.body.len()).sum()
    };
    assert!(symbols(&large) >= 8 * symbols(&small));

    let [n_small, n_large] = [&small, &large].map(|g| {
        settled_allocations(|| {
            allocations_in(|| {
                std::hint::black_box(match_grammar(g, &dfa));
            })
        })
    });
    assert!(
        n_small <= 4,
        "sweep of a small grammar allocated {n_small} times"
    );
    assert!(
        n_large <= n_small + 1,
        "allocations grew with the grammar: {n_small} -> {n_large}"
    );
}

/// `p` loops, each a rule of its own: `(x_i y_i y_i z)⁵` for phase `i`.
fn phased_grammar(phases: u32) -> pythia_core::grammar::Grammar {
    let mut rec = Recorder::new(RecordConfig {
        timestamps: false,
        validate: false,
    });
    for p in 0..phases {
        for _ in 0..5 {
            for e in [2 * p + 1, 2 * p + 2, 2 * p + 2, 0] {
                rec.record(EventId(e));
            }
        }
    }
    rec.finish_thread().unwrap().grammar
}

/// `GrammarIndex::build` keeps every per-rule and per-event list in one
/// flat array: a grammar ten times larger, with ten times the events,
/// costs the same number of allocations.
#[test]
fn index_build_allocations_do_not_follow_grammar_size() {
    let _counting = COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    let [small, large] = [4u32, 40].map(phased_grammar);
    assert!(small.rule_count() <= 5, "{} rules", small.rule_count());
    assert!(large.rule_count() >= 40, "{} rules", large.rule_count());
    let [n_small, n_large] = [&small, &large].map(|g| {
        settled_allocations(|| {
            allocations_in(|| {
                std::hint::black_box(GrammarIndex::build(g));
            })
        })
    });
    assert_eq!(
        n_small, n_large,
        "index build allocations grew with the grammar"
    );
}

/// Ceiling on the allocations of one `analyze_trace` over
/// [`ring_world`]. The passes allocate per rule summary and per
/// diagnostic, never per event. (Before the analyzer read the index built
/// at load and borrowed child summaries, this was 391.)
const ANALYZE_ALLOCS: usize = 189;

/// Four ranks exchanging halos in a ring, each storing to its own object,
/// between allreduces: every pass has work, none has findings.
fn ring_world() -> pythia_core::trace::TraceData {
    let mut registry = EventRegistry::new();
    let threads = (0..4i64)
        .map(|rank| {
            let events = [
                registry.intern("MPI_Isend", Some((rank + 1) % 4)),
                registry.intern("MPI_Irecv", Some((rank + 3) % 4)),
                registry.intern("MPI_Waitall", None),
                registry.intern("store", Some(rank)),
                registry.intern("MPI_Allreduce", Some(0)),
            ];
            let barrier = registry.intern("MPI_Barrier", None);
            let mut rec = Recorder::new(RecordConfig {
                timestamps: false,
                validate: false,
            });
            for _ in 0..3 {
                for _ in 0..10 {
                    for &e in &events {
                        rec.record(e);
                    }
                }
                rec.record(barrier);
            }
            rec.finish_thread().unwrap()
        })
        .collect();
    pythia_core::trace::TraceData::from_threads(threads, registry)
}

/// The analyzer reads each thread's index, built at load, and folds
/// summaries by borrowing: its allocations are pinned by a count.
#[test]
fn analyze_allocations_are_bounded() {
    let _counting = COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    let trace = ring_world();
    let config = AnalyzeConfig::default();
    let n = settled_allocations(|| {
        allocations_in(|| {
            std::hint::black_box(analyze_trace(&trace, &config));
        })
    });
    let report = analyze_trace(&trace, &config);
    assert!(
        !report.exceeds(Severity::Warning),
        "{}",
        report.render_text()
    );
    assert!(
        n <= ANALYZE_ALLOCS,
        "analyze_trace allocated {n} times (ceiling {ANALYZE_ALLOCS})"
    );
}
