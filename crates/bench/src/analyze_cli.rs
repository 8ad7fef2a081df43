//! Implementation of the `pythia-analyze` binary: static analysis of saved
//! traces without decompression.
//!
//! The binary is a thin `main` over [`run`], so integration tests can drive
//! the exact production code path (argument parsing, lenient loading, exit
//! codes) in-process instead of spawning the compiled binary.
//!
//! Exit codes: `0` clean (no finding at or above `--deny`), `1` at least
//! one deny-level finding, `2` usage or I/O error.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use pythia_core::analyze::{
    analyze_trace, AnalyzeConfig, ClassTable, EventClass, PatternQuery, Severity,
};
use pythia_core::error::Error;
use pythia_core::record::{RecordConfig, Recorder};
use pythia_core::trace::TraceData;

/// Exit code for "nothing at or above the deny level".
pub const EXIT_CLEAN: i32 = 0;
/// Exit code for "deny-level findings present".
pub const EXIT_FINDINGS: i32 = 1;
/// Exit code for usage or I/O errors.
pub const EXIT_USAGE: i32 = 2;

const USAGE: &str = "\
pythia-analyze: lint, verify and profile saved PYTHIA traces without expanding them

USAGE:
    pythia-analyze [FLAGS] TRACE...
    pythia-analyze race [FLAGS] TRACE...
    pythia-analyze match [FLAGS] <PATTERN> TRACE...
    pythia-analyze recover [--out <P>] [--json] TRACE

ARGS:
    TRACE...    saved trace files
    PATTERN     pattern query, e.g. 'MPI_Isend (!MPI_Wait){8}' or 'isend ~16 wait'
                (sequence, '|' alternation, '{n,m}' repeats, '!atom' negation,
                 'a ~N b' = b within N events of a, '.' any event; names are
                 case-insensitive and the MPI_ prefix may be omitted)

SUBCOMMANDS:
    race        happens-before race detection only: conflicting same-epoch
                accesses on different ranks (collectives delimit epochs)
    match       run one pattern query per rank on the compressed trace
    recover     rebuild an interrupted recording from its journal/checkpoint
                sidecars (`<TRACE>.r<rank>.journal` / `.ckpt`) and save the
                recovered trace to --out (default: TRACE itself)

FLAGS:
    --json                          machine-readable output (one report object per trace)
    --deny <warnings|errors>        exit 1 when findings reach this severity [default: errors]
    --no-lint                       skip the grammar linter
    --no-protocol                   skip the cross-rank MPI protocol verifier
    --no-race                       skip the happens-before race detector
    --no-predictability             skip the predictability report
    --top <N>                       least-predictable events to keep per thread [default: 5]
    --severity <info|warning|error> severity of a pattern hit (match) [default: warning]
    --absent                        match: flag ranks where the pattern NEVER matches
    --write-seeded-violations <P>   record a reference app, seed an unmatched send, a
                                    collective divergence, a same-epoch racy store pair
                                    and an Isend-without-Wait window into it, save to P,
                                    and exit
    --help                          show this help
";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Input trace paths, in argument order.
    pub paths: Vec<PathBuf>,
    /// Emit JSON instead of human text.
    pub json: bool,
    /// Severity at which findings turn the exit code non-zero.
    pub deny: Severity,
    /// Pass selection and predictability knobs.
    pub config: AnalyzeConfig,
    /// When set: write the seeded-violation fixture here and exit.
    pub seed_out: Option<PathBuf>,
    /// Severity of a pattern hit (`match` subcommand).
    pub severity: Severity,
    /// Invert the pattern verdict (`match --absent`).
    pub absent: bool,
    /// `--help` was requested.
    pub help: bool,
}

/// Parses `argv` (without the program name). Errors are usage messages.
pub fn parse(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        paths: Vec::new(),
        json: false,
        deny: Severity::Error,
        config: AnalyzeConfig::default(),
        seed_out: None,
        severity: Severity::Warning,
        absent: false,
        help: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => cli.json = true,
            "--deny" => {
                let v = it.next().ok_or("--deny needs a value")?;
                cli.deny = match v.as_str() {
                    "warnings" | "warning" => Severity::Warning,
                    "errors" | "error" => Severity::Error,
                    other => return Err(format!("--deny expects warnings|errors, got {other}")),
                };
            }
            "--no-lint" => cli.config.lint = false,
            "--no-protocol" => cli.config.protocol = false,
            "--no-race" => cli.config.race = false,
            "--no-predictability" => cli.config.predictability = false,
            "--absent" => cli.absent = true,
            "--severity" => {
                let v = it.next().ok_or("--severity needs a value")?;
                cli.severity = match v.as_str() {
                    "info" => Severity::Info,
                    "warning" | "warnings" => Severity::Warning,
                    "error" | "errors" => Severity::Error,
                    other => {
                        return Err(format!(
                            "--severity expects info|warning|error, got {other}"
                        ))
                    }
                };
            }
            "--top" => {
                let v = it.next().ok_or("--top needs a value")?;
                cli.config.top = v
                    .parse()
                    .map_err(|_| format!("--top expects a number, got {v}"))?;
            }
            "--write-seeded-violations" => {
                let v = it.next().ok_or("--write-seeded-violations needs a path")?;
                cli.seed_out = Some(PathBuf::from(v));
            }
            "--help" | "-h" => cli.help = true,
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            path => cli.paths.push(PathBuf::from(path)),
        }
    }
    if !cli.help && cli.seed_out.is_none() && cli.paths.is_empty() {
        return Err("no trace files given".into());
    }
    Ok(cli)
}

/// Records a reference application and seeds four violations into it: an
/// extra `MPI_Send` on rank 0 (unmatched send), an altered collective on
/// the last rank (collective-sequence divergence), a `store` to the same
/// object on ranks 0 and 1 in the same barrier epoch (data race), and an
/// `MPI_Isend` on rank 0 followed by 16 events none of which is a wait
/// (the Isend-without-Wait pattern window).
///
/// The mutation works offline — unfold each rank's grammar, edit the event
/// stream, re-record through [`Recorder`] — never through a live
/// communicator, where an intentionally broken protocol would deadlock the
/// collectives it is meant to corrupt. Re-recording keeps every grammar
/// invariant intact, so the linter stays green and the analyzer findings
/// are unmistakably *semantic* findings.
pub fn seeded_violation_trace() -> Arc<TraceData> {
    let app = pythia_apps::find_app("MG").expect("MG is in the app table");
    let base = pythia_apps::harness::record_trace(
        app.as_ref(),
        4,
        pythia_apps::WorkingSet::Small,
        pythia_apps::work::WorkScale::ZERO,
    );
    Arc::new(seed_violations(&base))
}

/// Seeds the four violations into an existing clean multi-rank trace.
pub fn seed_violations(base: &TraceData) -> TraceData {
    let mut registry = base.registry().clone();
    let extra_send = registry.intern("MPI_Send", Some(1));
    let divergent = registry.intern("MPI_Reduce", Some(0x5EED));
    let racy_store = registry.intern("store", Some(0x7ACE));
    let window_isend = registry.intern("MPI_Isend", Some(1));
    let window_pad = registry.intern("compute_pad", None);
    let classes = ClassTable::from_registry(&registry);
    let n = base.threads().len();
    let threads = base
        .threads()
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mut events = t.grammar.unfold();
            if i == 0 {
                events.push(extra_send);
            }
            // Racy pair: ranks 0 and 1 both store to the same object right
            // after their first collective — same barrier epoch on both
            // sides, so nothing orders the two writes.
            if i < 2 && n > 1 {
                let after_first_collective = events
                    .iter()
                    .position(|&e| matches!(classes.class(e), EventClass::Collective { .. }))
                    .map(|k| k + 1)
                    .unwrap_or(events.len());
                events.insert(after_first_collective, racy_store);
                if i == 0 {
                    // Isend-without-Wait window: an Isend followed by 16
                    // events none of which completes it.
                    let mut window = vec![window_isend];
                    window.extend(vec![window_pad; 16]);
                    events.splice(
                        after_first_collective + 1..after_first_collective + 1,
                        window,
                    );
                }
            }
            if i == n - 1 && n > 1 {
                let last_collective = events
                    .iter()
                    .rposition(|&e| matches!(classes.class(e), EventClass::Collective { .. }));
                match last_collective {
                    Some(k) => events[k] = divergent,
                    None => events.push(divergent),
                }
            }
            let mut rec = Recorder::new(RecordConfig {
                timestamps: false,
                validate: false,
            });
            for e in events {
                rec.record(e);
            }
            rec.finish_thread().expect("in-memory recorder cannot fail")
        })
        .collect();
    TraceData::from_threads(threads, registry)
}

/// Runs the `recover` subcommand: rebuild an interrupted recording from
/// its durability sidecars ([`TraceData::recover`]), report what was
/// salvaged, and save the recovered trace.
///
/// Exit codes: `0` recovered (the report notes any bounded loss), `2`
/// usage error or nothing recoverable.
pub fn run_recover(argv: &[String], out: &mut String, err: &mut String) -> i32 {
    let mut path: Option<PathBuf> = None;
    let mut dest: Option<PathBuf> = None;
    let mut json = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--out" => match it.next() {
                Some(v) => dest = Some(PathBuf::from(v)),
                None => {
                    let _ = writeln!(err, "error: --out needs a path\n\n{USAGE}");
                    return EXIT_USAGE;
                }
            },
            "--help" | "-h" => {
                out.push_str(USAGE);
                return EXIT_CLEAN;
            }
            other if other.starts_with("--") => {
                let _ = writeln!(err, "error: unknown flag {other}\n\n{USAGE}");
                return EXIT_USAGE;
            }
            p if path.is_none() => path = Some(PathBuf::from(p)),
            p => {
                let _ = writeln!(
                    err,
                    "error: recover takes one trace, got extra {p}\n\n{USAGE}"
                );
                return EXIT_USAGE;
            }
        }
    }
    let Some(path) = path else {
        let _ = writeln!(err, "error: recover needs a trace path\n\n{USAGE}");
        return EXIT_USAGE;
    };
    let (trace, report) = match TraceData::recover(&path) {
        Ok(r) => r,
        Err(e) => {
            let _ = writeln!(err, "error: {}: {e}", path.display());
            return EXIT_USAGE;
        }
    };
    let dest = dest.unwrap_or_else(|| path.clone());
    if let Err(e) = trace.save(&dest) {
        let _ = writeln!(err, "error: {}: {e}", dest.display());
        return EXIT_USAGE;
    }
    if json {
        let ranks: Vec<_> = report
            .ranks
            .iter()
            .map(|r| {
                serde_json::json!({
                    "rank": r.rank,
                    "checkpoint_events": r.checkpoint_events,
                    "replayed_events": r.replayed_events,
                    "recovered_events": r.recovered_events,
                    "torn_tail_bytes": r.torn_tail_bytes,
                    "warnings": r.warnings,
                })
            })
            .collect();
        let _ = writeln!(
            out,
            "{}",
            serde_json::json!({
                "path": path.display().to_string(),
                "out": dest.display().to_string(),
                "used_final_file": report.used_final_file,
                "placeholder_descs": report.placeholder_descs,
                "total_events": report.total_events(),
                "ranks": ranks,
            })
        );
    } else {
        let _ = writeln!(out, "{report}");
        let _ = writeln!(
            out,
            "recovered {} events -> {}",
            report.total_events(),
            dest.display()
        );
    }
    EXIT_CLEAN
}

/// Analyzes every path in `cli` with its config and renders the reports;
/// the exit code is the `--deny` verdict. Shared by the default mode and
/// the `race` / `match` subcommands.
fn analyze_paths(cli: &Cli, out: &mut String, err: &mut String) -> i32 {
    let mut json_reports = Vec::new();
    let mut denied = false;
    for path in &cli.paths {
        // Lenient on purpose: the analyzer's job is to *diagnose* invariant
        // violations, so the strict loader (which rejects them as
        // `Error::Corrupt`) would hide exactly the inputs this tool exists
        // for. Structurally unparseable files still error.
        let loaded = std::fs::read(path)
            .map_err(Error::from)
            .and_then(|bytes| TraceData::from_bytes_lenient(&bytes));
        let trace = match loaded {
            Ok(t) => t,
            Err(e) => {
                let _ = writeln!(err, "error: {}: {e}", path.display());
                return EXIT_USAGE;
            }
        };
        let report = analyze_trace(&trace, &cli.config);
        denied |= report.exceeds(cli.deny);
        if cli.json {
            json_reports.push(serde_json::json!({
                "path": path.display().to_string(),
                "report": report.to_json()
            }));
        } else {
            let _ = writeln!(out, "== {} ==", path.display());
            out.push_str(&report.render_text());
            out.push('\n');
        }
    }
    if cli.json {
        out.push_str(&serde_json::Value::Array(json_reports).to_string());
        out.push('\n');
    }
    if denied {
        EXIT_FINDINGS
    } else {
        EXIT_CLEAN
    }
}

/// Runs the `race` subcommand: the happens-before race detector alone
/// (plus the linter, whose soundness proof the summary algebra needs).
pub fn run_race(argv: &[String], out: &mut String, err: &mut String) -> i32 {
    let mut cli = match parse(argv) {
        Ok(cli) => cli,
        Err(msg) => {
            let _ = writeln!(err, "error: {msg}\n\n{USAGE}");
            return EXIT_USAGE;
        }
    };
    if cli.help {
        out.push_str(USAGE);
        return EXIT_CLEAN;
    }
    cli.config.protocol = false;
    cli.config.predictability = false;
    cli.config.race = true;
    analyze_paths(&cli, out, err)
}

/// Runs the `match <pattern>` subcommand: one pattern query per rank on
/// the compressed trace. `--severity` sets the weight of a hit,
/// `--absent` inverts the verdict (flag ranks where the pattern never
/// matches).
pub fn run_match(argv: &[String], out: &mut String, err: &mut String) -> i32 {
    let mut cli = match parse(argv) {
        Ok(cli) => cli,
        Err(msg) => {
            let _ = writeln!(err, "error: {msg}\n\n{USAGE}");
            return EXIT_USAGE;
        }
    };
    if cli.help {
        out.push_str(USAGE);
        return EXIT_CLEAN;
    }
    if cli.paths.len() < 2 {
        let _ = writeln!(
            err,
            "error: match needs a pattern and at least one trace\n\n{USAGE}"
        );
        return EXIT_USAGE;
    }
    let pattern = cli.paths.remove(0).display().to_string();
    let query = match PatternQuery::new(&pattern, cli.severity, cli.absent) {
        Ok(q) => q,
        Err(msg) => {
            let _ = writeln!(err, "error: {msg}\n\n{USAGE}");
            return EXIT_USAGE;
        }
    };
    cli.config.protocol = false;
    cli.config.predictability = false;
    cli.config.race = false;
    cli.config.patterns = vec![query];
    // A query hit should decide the exit code at its own severity.
    cli.deny = cli.deny.min(cli.severity);
    analyze_paths(&cli, out, err)
}

/// Runs the CLI. Human/JSON output is appended to `out`, errors to `err`;
/// returns the process exit code.
pub fn run(argv: &[String], out: &mut String, err: &mut String) -> i32 {
    match argv.first().map(String::as_str) {
        Some("recover") => return run_recover(&argv[1..], out, err),
        Some("race") => return run_race(&argv[1..], out, err),
        Some("match") => return run_match(&argv[1..], out, err),
        _ => {}
    }
    let cli = match parse(argv) {
        Ok(cli) => cli,
        Err(msg) => {
            let _ = writeln!(err, "error: {msg}\n\n{USAGE}");
            return EXIT_USAGE;
        }
    };
    if cli.help {
        out.push_str(USAGE);
        return EXIT_CLEAN;
    }
    if let Some(path) = &cli.seed_out {
        let trace = seeded_violation_trace();
        return match trace.save(path) {
            Ok(()) => {
                let _ = writeln!(out, "wrote seeded-violation trace to {}", path.display());
                EXIT_CLEAN
            }
            Err(e) => {
                let _ = writeln!(err, "error: {}: {e}", path.display());
                EXIT_USAGE
            }
        };
    }
    analyze_paths(&cli, out, err)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_defaults_and_flags() {
        let argv: Vec<String> = [
            "a.trace",
            "--deny",
            "warnings",
            "--no-predictability",
            "--top",
            "3",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let cli = parse(&argv).unwrap();
        assert_eq!(cli.paths.len(), 1);
        assert_eq!(cli.deny, Severity::Warning);
        assert!(cli.config.lint && cli.config.protocol);
        assert!(!cli.config.predictability);
        assert_eq!(cli.config.top, 3);
    }

    #[test]
    fn parse_rejects_unknown_flag_and_empty() {
        assert!(parse(&["--frobnicate".to_string()]).is_err());
        assert!(parse(&[]).is_err());
        assert!(parse(&["--help".to_string()]).unwrap().help);
    }

    #[test]
    fn usage_error_exits_2() {
        let (mut out, mut err) = (String::new(), String::new());
        assert_eq!(run(&["--deny".to_string()], &mut out, &mut err), EXIT_USAGE);
        assert!(err.contains("--deny needs a value"));
    }

    #[test]
    fn missing_file_exits_2() {
        let (mut out, mut err) = (String::new(), String::new());
        let argv = vec!["/nonexistent/definitely-not-here.trace".to_string()];
        assert_eq!(run(&argv, &mut out, &mut err), EXIT_USAGE);
    }
}
