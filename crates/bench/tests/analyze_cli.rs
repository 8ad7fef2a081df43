//! End-to-end test of `pythia-analyze` (ISSUE acceptance criterion):
//! record a real application through the instrumented MPI runtime, seed an
//! unmatched send and a collective divergence into the trace, and check
//! the CLI detects both and exits non-zero under `--deny` — while the
//! clean recording passes `--deny warnings`.
//!
//! Drives `analyze_cli::run` in-process (the binary's `main` is a thin
//! wrapper around it), so exit codes, loading, and output formatting are
//! all the production path. The `recover` subcommand is driven the same
//! way over a durable multi-rank recording crashed at chosen event counts.

use pythia_bench::analyze_cli::{run, run_recover, seed_violations, EXIT_CLEAN, EXIT_FINDINGS};
use pythia_core::analyze::Severity;

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

#[test]
fn seeded_violations_detected_clean_trace_passes() {
    let dir = std::env::temp_dir().join(format!("pythia-analyze-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let clean_path = dir.join("clean.trace");
    let seeded_path = dir.join("seeded.trace");

    // Reference execution: record MG on 4 ranks end to end.
    let app = pythia_apps::find_app("MG").unwrap();
    let clean = pythia_apps::harness::record_trace(
        app.as_ref(),
        4,
        pythia_apps::WorkingSet::Small,
        pythia_apps::work::WorkScale::ZERO,
    );
    clean.save(&clean_path).unwrap();
    seed_violations(&clean).save(&seeded_path).unwrap();

    // The clean recording is protocol-correct: exit 0 even denying
    // warnings.
    let (mut out, mut err) = (String::new(), String::new());
    let code = run(
        &args(&[clean_path.to_str().unwrap(), "--deny", "warnings"]),
        &mut out,
        &mut err,
    );
    assert_eq!(code, EXIT_CLEAN, "{out}{err}");

    // The seeded trace: both violations found, exit 1 under --deny.
    let (mut out, mut err) = (String::new(), String::new());
    let code = run(
        &args(&[seeded_path.to_str().unwrap(), "--deny", "errors"]),
        &mut out,
        &mut err,
    );
    assert_eq!(code, EXIT_FINDINGS, "{out}{err}");
    assert!(out.contains("unmatched-send"), "{out}");
    assert!(out.contains("collective-divergence"), "{out}");
    assert!(out.contains("data-race"), "{out}");

    // The race subcommand alone flags the seeded racy store pair…
    let (mut out, mut err) = (String::new(), String::new());
    let code = run(
        &args(&["race", seeded_path.to_str().unwrap(), "--deny", "errors"]),
        &mut out,
        &mut err,
    );
    assert_eq!(code, EXIT_FINDINGS, "{out}{err}");
    assert!(out.contains("data-race"), "{out}");
    // …and the clean recording stays clean under it.
    let (mut out, mut err) = (String::new(), String::new());
    let code = run(
        &args(&["race", clean_path.to_str().unwrap(), "--deny", "warnings"]),
        &mut out,
        &mut err,
    );
    assert_eq!(code, EXIT_CLEAN, "{out}{err}");

    // The match subcommand finds the seeded Isend-without-Wait window.
    let (mut out, mut err) = (String::new(), String::new());
    let code = run(
        &args(&[
            "match",
            "MPI_Isend (!MPI_Wait){8}",
            seeded_path.to_str().unwrap(),
        ]),
        &mut out,
        &mut err,
    );
    assert_eq!(code, EXIT_FINDINGS, "{out}{err}");
    assert!(out.contains("pattern-match"), "{out}");
    // A malformed pattern is a usage error, not a finding.
    let (mut out, mut err) = (String::new(), String::new());
    let code = run(
        &args(&["match", "isend (", seeded_path.to_str().unwrap()]),
        &mut out,
        &mut err,
    );
    assert_eq!(code, pythia_bench::analyze_cli::EXIT_USAGE, "{out}{err}");

    // JSON mode agrees and carries the same codes.
    let (mut out, mut err) = (String::new(), String::new());
    let code = run(
        &args(&[seeded_path.to_str().unwrap(), "--json"]),
        &mut out,
        &mut err,
    );
    assert_eq!(code, EXIT_FINDINGS, "{out}{err}");
    let v: serde_json::Value = serde_json::from_str(out.trim()).unwrap();
    let diags = v[0]["report"]["diagnostics"].as_array().unwrap().clone();
    let codes: Vec<String> = diags
        .iter()
        .map(|d| d["code"].as_str().unwrap().to_string())
        .collect();
    assert!(codes.iter().any(|c| c == "unmatched-send"), "{codes:?}");
    assert!(
        codes.iter().any(|c| c == "collective-divergence"),
        "{codes:?}"
    );

    // Structured report mirrors the library verdict exactly.
    let reloaded = pythia_core::trace::TraceData::load(&seeded_path).unwrap();
    let report = pythia_core::analyze::analyze_trace(&reloaded, &Default::default());
    assert_eq!(report.count(Severity::Error), 3);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pass_selection_flags_suppress_findings() {
    // A lone unmatched send: visible normally, invisible with
    // --no-protocol (the finding belongs to exactly that pass).
    let mut reg = pythia_core::event::EventRegistry::new();
    let send = reg.intern("MPI_Send", Some(1));
    let mut rec = pythia_core::record::Recorder::new(pythia_core::record::RecordConfig {
        timestamps: false,
        validate: false,
    });
    rec.record(send);
    let t0 = rec.finish_thread().unwrap();
    let mut rec = pythia_core::record::Recorder::new(pythia_core::record::RecordConfig {
        timestamps: false,
        validate: false,
    });
    rec.record(reg.intern("compute", None));
    let t1 = rec.finish_thread().unwrap();
    let trace = pythia_core::trace::TraceData::from_threads(vec![t0, t1], reg);

    let dir = std::env::temp_dir().join(format!("pythia-analyze-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("p2p.trace");
    trace.save(&path).unwrap();

    let (mut out, mut err) = (String::new(), String::new());
    assert_eq!(
        run(&args(&[path.to_str().unwrap()]), &mut out, &mut err),
        EXIT_FINDINGS
    );
    let (mut out, mut err) = (String::new(), String::new());
    assert_eq!(
        run(
            &args(&[path.to_str().unwrap(), "--no-protocol"]),
            &mut out,
            &mut err
        ),
        EXIT_CLEAN,
        "{out}{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// MG at 4 ranks with the four seeded violations, made deterministic:
/// ranks intern descriptors concurrently, so ids are reassigned by first
/// appearance in rank order and every rank is re-recorded through a
/// [`Recorder`](pythia_core::record::Recorder).
fn canonical_seeded_mg() -> pythia_core::trace::TraceData {
    use pythia_core::event::{EventId, EventRegistry};
    use pythia_core::record::{RecordConfig, Recorder};

    let app = pythia_apps::find_app("MG").unwrap();
    let recorded = pythia_apps::harness::record_trace(
        app.as_ref(),
        4,
        pythia_apps::WorkingSet::Small,
        pythia_apps::work::WorkScale::ZERO,
    );
    let mut remap: Vec<Option<EventId>> = vec![None; recorded.registry().len()];
    let mut registry = EventRegistry::new();
    let threads = recorded
        .threads()
        .iter()
        .map(|t| {
            let mut rec = Recorder::new(RecordConfig {
                timestamps: false,
                validate: false,
            });
            for e in t.grammar.unfold() {
                let id = *remap[e.index()].get_or_insert_with(|| {
                    let desc = recorded.registry().describe(e).unwrap();
                    registry.intern(&desc.name, desc.payload)
                });
                rec.record(id);
            }
            rec.finish_thread().unwrap()
        })
        .collect();
    seed_violations(&pythia_core::trace::TraceData::from_threads(
        threads, registry,
    ))
}

/// The analyzer's full report on [`canonical_seeded_mg`] — every pass plus
/// the two window queries `ci.sh` runs — byte for byte against the
/// committed golden file. On a mismatch the actual report is written to
/// the system temp dir for inspection.
#[test]
fn seeded_report_matches_golden() {
    use pythia_core::analyze::{analyze_trace, AnalyzeConfig, PatternQuery};

    let trace = canonical_seeded_mg();
    let config = AnalyzeConfig {
        patterns: ["MPI_Isend (!MPI_Wait){8}", "MPI_Isend ~6 MPI_Waitall"]
            .iter()
            .map(|q| PatternQuery::new(q, Severity::Warning, false).unwrap())
            .collect(),
        ..AnalyzeConfig::default()
    };
    let report = analyze_trace(&trace, &config);
    let actual = format!(
        "{}\n{}",
        serde_json::to_string_pretty(&report.to_json()).unwrap(),
        report.render_text()
    );
    let golden = include_str!("golden/seeded_mg4_report.txt");
    if actual != golden {
        let path = std::env::temp_dir().join("seeded_mg4_report.actual.txt");
        std::fs::write(&path, &actual).unwrap();
        panic!(
            "analyzer report differs from the golden file; actual written to {}",
            path.display()
        );
    }
}

/// Journal flush budget of [`crashed_recording_recovers_and_analyzes_clean`].
const FLUSH_EVENTS: u64 = 64;
/// Checkpoint cadence of the same test.
const SNAPSHOT_EVENTS: u64 = 4096;

/// Submits the first `n` events of a rank's stream: iterations of
/// compute, a three-peer exchange and a reduce (the shape a stencil
/// solver produces), so the grammar is a real compressed loop nest.
fn record_stream(pc: &pythia_runtime_mpi::PythiaComm<pythia_minimpi::Comm>, n: u64) {
    for i in 0..n {
        match i % 5 {
            0 => pc.custom_event("compute", Some((i / 5 % 7) as i64)),
            4 => pc.custom_event("reduce", None),
            peer => pc.custom_event("exchange", Some(peer as i64 - 1)),
        }
    }
}

/// A durable 2-rank recording whose ranks each stop after `events[rank]`
/// events. With `crash`, each rank's wrapper is leaked instead of
/// finished: no finish and no drop guard runs, as under `kill -9`, and
/// only the sidecars survive. Otherwise the run finalizes normally.
fn record_session(path: &std::path::Path, events: [u64; 2], crash: bool) {
    use pythia_core::persist::PersistConfig;
    use pythia_runtime_mpi::RecordingSession;

    let session = RecordingSession::with_persist(
        path,
        false,
        PersistConfig {
            flush_events: FLUSH_EVENTS as usize,
            flush_bytes: 4 << 10,
            snapshot_events: SNAPSHOT_EVENTS,
            faults: Some(pythia_core::resilience::FaultPlan::none()),
            ..PersistConfig::default()
        },
    );
    let reports = pythia_minimpi::World::run(2, |comm| {
        let rank = pythia_minimpi::Communicator::rank(&comm);
        let pc = session.wrap(comm).unwrap();
        record_stream(&pc, events[rank]);
        if crash {
            std::mem::forget(pc);
            None
        } else {
            Some(pc.finish().unwrap())
        }
    });
    if !crash {
        session
            .finalize(reports.into_iter().flatten().collect())
            .unwrap();
    }
}

/// One rank of a trace, serialized alone: grammar, timing entries and
/// event count, without the registry.
fn rank_bytes(trace: &pythia_core::trace::TraceData, rank: usize) -> Vec<u8> {
    pythia_core::trace::TraceData::from_threads(
        vec![(**trace.thread(rank).unwrap()).clone()],
        pythia_core::event::EventRegistry::new(),
    )
    .to_bytes()
    .to_vec()
}

/// A durable recording crashed after `k` events per rank is rebuilt by
/// `pythia-analyze recover` and analyzes clean under `--deny errors`,
/// for kill points on both sides of a flush boundary and of a checkpoint
/// boundary. Each recovered rank lost at most one flush budget and is
/// byte-identical to a fresh recording of its journaled prefix.
#[test]
fn crashed_recording_recovers_and_analyzes_clean() {
    let dir = std::env::temp_dir().join(format!("pythia-analyze-crash-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for k in [
        FLUSH_EVENTS,
        2 * FLUSH_EVENTS - 1,
        2 * FLUSH_EVENTS + 1,
        SNAPSHOT_EVENTS - 1,
        SNAPSHOT_EVENTS + 1,
    ] {
        let crashed = dir.join(format!("crash{k}.pythia"));
        let recovered = dir.join(format!("recovered{k}.pythia"));
        record_session(&crashed, [k, k], true);
        assert!(!crashed.exists(), "k={k}: the crashed run finalized");

        let (mut out, mut err) = (String::new(), String::new());
        let code = run_recover(
            &args(&[
                "--json",
                "--out",
                recovered.to_str().unwrap(),
                crashed.to_str().unwrap(),
            ]),
            &mut out,
            &mut err,
        );
        assert_eq!(code, EXIT_CLEAN, "k={k}: {out}{err}");
        let (mut out2, mut err2) = (String::new(), String::new());
        let code = run(
            &args(&["--deny", "errors", recovered.to_str().unwrap()]),
            &mut out2,
            &mut err2,
        );
        assert_eq!(code, EXIT_CLEAN, "k={k}: {out2}{err2}");

        let report: serde_json::Value = serde_json::from_str(out.trim()).unwrap();
        let ranks = report["ranks"].as_array().unwrap();
        assert_eq!(ranks.len(), 2, "k={k}: {out}");
        let mut prefix = [0u64; 2];
        for r in ranks {
            let rank = r["rank"].as_u64().unwrap() as usize;
            prefix[rank] = r["recovered_events"].as_u64().unwrap();
            assert!(
                k - prefix[rank] <= FLUSH_EVENTS,
                "k={k}: rank {rank} lost {} events, flush budget is {FLUSH_EVENTS}",
                k - prefix[rank]
            );
            let from_checkpoint = r["checkpoint_events"].as_u64().unwrap() > 0;
            assert_eq!(from_checkpoint, k >= SNAPSHOT_EVENTS, "k={k}: {r}");
        }

        let fresh = dir.join(format!("fresh{k}.pythia"));
        record_session(&fresh, prefix, false);
        let fresh = pythia_core::trace::TraceData::load(&fresh).unwrap();
        let rebuilt = pythia_core::trace::TraceData::load(&recovered).unwrap();
        for rank in 0..2 {
            assert_eq!(
                rank_bytes(&rebuilt, rank),
                rank_bytes(&fresh, rank),
                "k={k}: recovered rank {rank} differs from a fresh recording of its prefix"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
