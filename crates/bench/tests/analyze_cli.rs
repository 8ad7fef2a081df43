//! End-to-end test of `pythia-analyze` (ISSUE acceptance criterion):
//! record a real application through the instrumented MPI runtime, seed an
//! unmatched send and a collective divergence into the trace, and check
//! the CLI detects both and exits non-zero under `--deny` — while the
//! clean recording passes `--deny warnings`.
//!
//! Drives `analyze_cli::run` in-process (the binary's `main` is a thin
//! wrapper around it), so exit codes, loading, and output formatting are
//! all the production path.

use pythia_bench::analyze_cli::{run, seed_violations, EXIT_CLEAN, EXIT_FINDINGS};
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
