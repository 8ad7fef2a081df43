//! End-to-end integration across crates: application skeletons →
//! instrumented MPI runtime → trace file on disk → reload → prediction.

use std::sync::Arc;

use pythia::apps::harness::{record_trace, run_app};
use pythia::apps::work::WorkScale;
use pythia::apps::{all_apps, find_app, WorkingSet};
use pythia::core::trace::TraceData;
use pythia::runtime_mpi::MpiMode;

/// Record → save to disk → load → predict, through the real file format.
#[test]
fn record_save_load_predict_roundtrip() {
    let app = find_app("MG").unwrap();
    let trace = record_trace(app.as_ref(), 4, WorkingSet::Small, WorkScale::ZERO);

    let dir = std::env::temp_dir().join("pythia-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mg.trace");
    trace.save(&path).unwrap();

    let loaded = Arc::new(TraceData::load(&path).unwrap());
    assert_eq!(loaded.thread_count(), 4);
    assert_eq!(loaded.total_events(), trace.total_events());

    let res = run_app(
        app.as_ref(),
        4,
        WorkingSet::Small,
        MpiMode::predict(Arc::clone(&loaded)),
        WorkScale::ZERO,
    );
    let (mut correct, mut total) = (0u64, 0u64);
    for r in &res.reports {
        for (_, acc) in &r.accuracy {
            correct += acc.correct;
            total += acc.total();
        }
    }
    assert!(total > 0);
    let acc = correct as f64 / total as f64;
    assert!(acc > 0.9, "post-reload accuracy {acc}");
    std::fs::remove_file(&path).ok();
}

/// Feeding an application a trace recorded from a *different* application
/// must degrade gracefully (unknown events, low accuracy), never crash.
#[test]
fn cross_application_trace_degrades_gracefully() {
    let bt = find_app("BT").unwrap();
    let cg = find_app("CG").unwrap();
    let bt_trace = record_trace(bt.as_ref(), 4, WorkingSet::Small, WorkScale::ZERO);

    let res = run_app(
        cg.as_ref(),
        4,
        WorkingSet::Small,
        MpiMode::predict(bt_trace),
        WorkScale::ZERO,
    );
    for r in &res.reports {
        let st = r.predict_stats.unwrap();
        assert!(st.observed > 0);
        // CG's swap/transpose traffic never appears in BT's trace.
        assert!(
            st.unknown + st.reseeded > 0,
            "oracle should lose sync on foreign events: {st:?}"
        );
    }
}

/// Every application must predict its own identical replay well at
/// distance 1 (the paper's Fig. 8 left edge: all apps start high).
#[test]
fn all_apps_self_replay_distance_one() {
    for app in all_apps() {
        let trace = record_trace(app.as_ref(), 4, WorkingSet::Small, WorkScale::ZERO);
        let res = run_app(
            app.as_ref(),
            4,
            WorkingSet::Small,
            MpiMode::predict(trace),
            WorkScale::ZERO,
        );
        let (mut correct, mut total) = (0u64, 0u64);
        for r in &res.reports {
            for (_, acc) in &r.accuracy {
                correct += acc.correct;
                total += acc.total();
            }
        }
        assert!(total > 0, "{}: no predictions", app.name());
        let acc = correct as f64 / total as f64;
        // AMG/Quicksilver are irregular by design; everyone else is >90%.
        let floor = match app.name() {
            "AMG" | "Quicksilver" => 0.40,
            _ => 0.90,
        };
        assert!(
            acc >= floor,
            "{}: self-replay accuracy {acc:.3} < {floor}",
            app.name()
        );
    }
}

/// Recording must be lossless for every application and working set:
/// the grammar unfolds to exactly the events that were submitted.
#[test]
fn recording_lossless_across_working_sets() {
    for app in all_apps() {
        for ws in [WorkingSet::Small, WorkingSet::Medium] {
            let res = run_app(app.as_ref(), 4, ws, MpiMode::record(), WorkScale::ZERO);
            for r in &res.reports {
                let t = r.thread_trace.as_ref().unwrap();
                assert_eq!(
                    t.grammar.trace_len(),
                    r.events,
                    "{} {} rank {}",
                    app.name(),
                    ws.label(),
                    r.rank
                );
            }
        }
    }
}

/// Real application traces survive the binary format: every rank unfolds
/// to the recorded events, and re-encoding the loaded trace reproduces the
/// saved bytes exactly.
#[test]
fn binary_format_round_trips_app_traces() {
    let app = find_app("Kripke").unwrap();
    let trace = record_trace(app.as_ref(), 4, WorkingSet::Small, WorkScale::ZERO);
    let bytes = trace.to_bytes();
    let loaded = TraceData::from_bytes(&bytes).unwrap();
    assert_eq!(loaded.thread_count(), 4);
    for t in 0..trace.thread_count() {
        assert_eq!(
            loaded.thread(t).unwrap().grammar.unfold(),
            trace.thread(t).unwrap().grammar.unfold()
        );
    }
    assert_eq!(loaded.to_bytes(), bytes);
}

/// Predicting with more ranks than the trace has threads fails cleanly.
#[test]
fn rank_count_mismatch_is_detected() {
    let app = find_app("FT").unwrap();
    let trace = record_trace(app.as_ref(), 2, WorkingSet::Small, WorkScale::ZERO);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_app(
            app.as_ref(),
            4, // more ranks than recorded threads
            WorkingSet::Small,
            MpiMode::predict(trace),
            WorkScale::ZERO,
        )
    }));
    assert!(result.is_err(), "mismatched rank count must be rejected");
}
