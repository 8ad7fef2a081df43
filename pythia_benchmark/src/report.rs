//! What a run prints and writes; `--describe`, `--all` and `--selfcheck`.

use std::path::Path;
use std::process::{Command, ExitCode};

use serde_json::Value;

use crate::harness::{RoundOut, RoundSample, Violation};
use crate::metrics::{Better, Metric, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::Tally;
use crate::RUN_SECONDS;

/// Everything one run of one workload found.
pub struct Report {
    /// The workload.
    pub workload: &'static str,
    /// The seed.
    pub seed: u64,
    /// Whether this was a traced run.
    pub traced: bool,
    /// Operations over all timed rounds, by outcome.
    pub tally: Tally,
    /// Counts of one round: exact for a fixed seed.
    pub per_round: RoundOut,
    /// The timed rounds, raw: calibration, wall time, median latency.
    pub rounds: Vec<RoundSample>,
    /// Quartiles of each calibrated timing over its samples.
    pub quartiles: Vec<(&'static str, [f64; 3])>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Violated correctness checks.
    pub violations: Vec<Violation>,
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn tally_json(t: &Tally) -> Value {
    object(vec![
        ("attempted", t.attempted.into()),
        ("failed", t.failed().into()),
        ("dropped", t.dropped.into()),
        ("refused", t.refused.into()),
        ("degraded", t.degraded.into()),
        ("suppressed", t.suppressed.into()),
        ("errored", t.errored.into()),
        ("wrong", t.wrong.into()),
    ])
}

impl Report {
    /// No check was violated and no operation failed.
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.tally.failed() == 0
    }

    fn metrics_json(&self) -> Value {
        Value::Object(
            self.metrics
                .iter()
                .map(|m| {
                    let entry = object(vec![("value", m.value.into()), ("unit", m.unit.into())]);
                    (m.name.clone(), entry)
                })
                .collect(),
        )
    }

    /// The result line the benchmark contract asks for.
    pub fn result_line(&self) -> String {
        object(vec![
            ("correct", self.correct().into()),
            ("attempted", self.tally.attempted.into()),
            ("failed", self.tally.failed().into()),
            ("metrics", self.metrics_json()),
        ])
        .to_string()
    }

    /// The full report; its last key is `"claim": null` — defining the
    /// benchmark claims no gain.
    pub fn full_json(&self) -> String {
        let r = &self.per_round;
        let doc = object(vec![
            ("workload", self.workload.into()),
            ("seed", self.seed.into()),
            ("traced", self.traced.into()),
            ("correct", self.correct().into()),
            (
                "rounds",
                Value::Array(
                    self.rounds
                        .iter()
                        .map(|r| {
                            object(vec![
                                ("calib_ns", r.calib_ns.into()),
                                ("wall_ns", r.wall_ns.into()),
                                ("op_p50_ns", r.op_p50_ns.into()),
                                (
                                    "slices_ns",
                                    Value::Array(r.slices_ns.iter().map(|&ns| ns.into()).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("operations", tally_json(&self.tally)),
            (
                "per_round",
                object(vec![
                    ("events", r.events.into()),
                    ("ops", r.tally.attempted.into()),
                    ("failed", r.tally.failed().into()),
                    ("d1_scored", r.d1_scored.into()),
                    ("d1_correct", r.d1_correct.into()),
                    ("trace_bytes", r.trace_bytes.into()),
                ]),
            ),
            ("metrics", self.metrics_json()),
            (
                "violations",
                Value::Array(
                    self.violations
                        .iter()
                        .map(|v| {
                            object(vec![
                                ("check", v.check.into()),
                                ("detail", v.detail.as_str().into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("claim", Value::Null),
        ]);
        serde_json::to_string_pretty(&doc).expect("value trees serialise") + "\n"
    }

    /// Prints every metric by name with its unit, the counts, and every
    /// violated check.
    pub fn print(&self) {
        let kind = if self.traced {
            "per-layer"
        } else {
            "end-to-end"
        };
        println!(
            "{} seed {} — {kind} metrics over {} rounds",
            self.workload,
            self.seed,
            self.rounds.len()
        );
        let width = self.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
        for m in &self.metrics {
            println!("  {:<width$}  {:>18.6} {}", m.name, m.value, m.unit);
        }
        for (name, [q1, q2, q3]) in &self.quartiles {
            println!(
                "  {name} over its samples: q1 {q1:.6}, median {q2:.6}, q3 {q3:.6} (spread {:.2} %)",
                (q3 - q1) / q2 * 100.0
            );
        }
        let r = &self.per_round;
        println!(
            "  per round: {} events, {} operations, {} failed; distance-1 accuracy {}/{}; \
             {} trace bytes for {} events",
            r.events,
            r.tally.attempted,
            r.tally.failed(),
            r.d1_correct,
            r.d1_scored,
            r.trace_bytes,
            r.trace_events
        );
        let t = &self.tally;
        println!(
            "  failed_ratio {} = {}/{} (dropped {}, refused {}, degraded {}, suppressed {}, \
             errored {}, wrong {})",
            t.failed_ratio(),
            t.failed(),
            t.attempted,
            t.dropped,
            t.refused,
            t.degraded,
            t.suppressed,
            t.errored,
            t.wrong
        );
        for v in &self.violations {
            println!("  VIOLATED {}: {}", v.check, v.detail);
        }
        println!(
            "  checks: {}",
            if self.correct() {
                "all passed"
            } else {
                "FAILED"
            }
        );
    }
}

/// The contents of `/BENCHMARK.json`, from the tables in `metrics.rs`.
pub fn describe() -> String {
    let manifest = "pythia_benchmark/Cargo.toml";
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        manifest,
        "--",
    ];
    let doc = object(vec![
        (
            "command",
            Value::Array(command.iter().map(|&s| s.into()).collect()),
        ),
        ("paths", Value::Array(vec!["pythia_benchmark".into()])),
        ("run_seconds", RUN_SECONDS.into()),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| object(vec![("name", w.name.into()), ("why", w.why.into())]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        object(vec![
                            ("name", m.name.into()),
                            ("unit", m.unit.into()),
                            ("better", m.better.label().into()),
                            ("bound", m.bound.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        object(vec![
                            ("name", m.name.into()),
                            ("unit", m.unit.into()),
                            ("better", m.better.label().into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    serde_json::to_string_pretty(&doc).expect("value trees serialise")
}

/// One child's report, as parsed back from its `--json` file.
struct ChildRun {
    workload: &'static str,
    ok: bool,
    report: Value,
}

/// Runs every workload, each in a fresh process of this executable, so
/// pinning, allocator state and peak memory are per workload.
fn run_set(label: &str, seed: u64, seconds: f64, trace: bool) -> std::io::Result<Vec<ChildRun>> {
    let exe = std::env::current_exe()?;
    let out_dir = exe
        .parent()
        .unwrap_or(Path::new("."))
        .join("pythia_benchmark.out");
    std::fs::create_dir_all(&out_dir)?;
    let mut runs = Vec::new();
    for w in &WORKLOADS {
        let json = out_dir.join(format!("report.{label}.{}.json", w.name));
        let _ = std::fs::remove_file(&json);
        let status = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .arg("--json")
            .arg(&json)
            .status()?;
        let report = std::fs::read_to_string(&json)
            .ok()
            .and_then(|text| serde_json::from_str(&text).ok())
            .unwrap_or(Value::Null);
        runs.push(ChildRun {
            workload: w.name,
            ok: status.success(),
            report,
        });
    }
    Ok(runs)
}

fn metric_value(report: &Value, name: &str) -> Option<f64> {
    report["metrics"][name]["value"].as_f64()
}

fn print_summary(runs: &[ChildRun]) {
    println!("\n{:<14} {:>8}", "workload", "checks");
    for run in runs {
        println!(
            "{:<14} {:>8}",
            run.workload,
            if run.ok { "passed" } else { "FAILED" }
        );
    }
    println!();
    for m in &END_TO_END {
        println!(
            "{} [{}], {} is better, bound {}",
            m.name,
            m.unit,
            m.better.label(),
            m.bound
        );
        for run in runs {
            match metric_value(&run.report, m.name) {
                Some(v) => println!("  {:<14} {v:>18.6}", run.workload),
                None => println!("  {:<14} {:>18}", run.workload, "-"),
            }
        }
    }
}

/// `--all`: every workload once.
pub fn run_all(json: Option<&Path>, seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let runs = match run_set("all", seed, seconds, trace) {
        Ok(runs) => runs,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if !trace {
        print_summary(&runs);
    }
    if let Some(path) = json {
        let doc = object(vec![
            (
                "runs",
                Value::Array(runs.iter().map(|r| r.report.clone()).collect()),
            ),
            ("claim", Value::Null),
        ]);
        let text = serde_json::to_string_pretty(&doc).expect("value trees serialise") + "\n";
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("error: write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if runs.iter().all(|r| r.ok) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better).
pub fn worsening(first: f64, second: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// `--selfcheck`: two sets of `--all` on the same code must agree — every
/// end-to-end metric within its bound either way, every count exactly.
pub fn selfcheck(seed: u64, seconds: f64) -> ExitCode {
    let sets = match (
        run_set("first", seed, seconds, false),
        run_set("second", seed, seconds, false),
    ) {
        (Ok(a), Ok(b)) => [a, b],
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut agree = true;
    println!(
        "\n{:<14} {:<13} {:>16} {:>16} {:>9} {:>6}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (a, b) in sets[0].iter().zip(&sets[1]) {
        agree &= a.ok && b.ok;
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (
                metric_value(&a.report, m.name),
                metric_value(&b.report, m.name),
            ) else {
                println!("{:<14} {:<13} missing", a.workload, m.name);
                agree = false;
                continue;
            };
            let diff = worsening(x, y, m.better);
            let within = diff.abs() <= m.bound;
            agree &= within;
            println!(
                "{:<14} {:<13} {x:>16.6} {y:>16.6} {:>+8.2}% {:>5.0}%{}",
                a.workload,
                m.name,
                diff * 100.0,
                m.bound * 100.0,
                if within { "" } else { "  DISAGREE" }
            );
        }
        if a.report["per_round"] != b.report["per_round"] || a.report["per_round"].is_null() {
            println!(
                "{:<14} counts differ: {} vs {}",
                a.workload, a.report["per_round"], b.report["per_round"]
            );
            agree = false;
        }
    }
    println!(
        "\nselfcheck: {}",
        if agree {
            "the two sets agree"
        } else {
            "DISAGREEMENT"
        }
    );
    if agree {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(violations: Vec<Violation>, tally: Tally) -> Report {
        Report {
            workload: "serve_single",
            seed: 3,
            traced: false,
            tally,
            per_round: RoundOut::default(),
            rounds: Vec::new(),
            quartiles: Vec::new(),
            metrics: vec![
                Metric::new("op_p50_us", 6.28125, "us"),
                Metric::new("setup_s", 0.004375, "s"),
            ],
            violations,
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let tally = Tally {
            attempted: 1000,
            ..Tally::default()
        };
        let line = report(Vec::new(), tally).result_line();
        assert!(!line.contains('\n'));
        let v: Value = serde_json::from_str(&line).expect("one JSON object");
        let keys: Vec<&str> = v
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v["correct"].as_bool(), Some(true));
        assert_eq!(v["attempted"].as_u64(), Some(1000));
        assert_eq!(v["failed"].as_u64(), Some(0));
        assert_eq!(v["metrics"]["op_p50_us"]["value"].as_f64(), Some(6.28125));
        assert_eq!(v["metrics"]["setup_s"]["unit"].as_str(), Some("s"));
    }

    #[test]
    fn a_violation_or_a_failed_operation_makes_the_run_incorrect() {
        let ok = Tally {
            attempted: 10,
            ..Tally::default()
        };
        assert!(report(Vec::new(), ok).correct());
        let v = vec![Violation::new("serve.served_equals_local", "request 7")];
        let bad = report(v, ok);
        assert!(!bad.correct());
        assert!(bad.result_line().starts_with("{\"correct\":false"));
        let degraded = Tally { degraded: 1, ..ok };
        assert!(!report(Vec::new(), degraded).correct());
    }

    #[test]
    fn the_full_report_ends_with_a_null_claim() {
        let text = report(Vec::new(), Tally::default()).full_json();
        assert!(text.trim_end().ends_with("\"claim\": null\n}"), "{text}");
        let v: Value = serde_json::from_str(&text).expect("parses");
        assert!(v["claim"].is_null());
        assert_eq!(v["per_round"]["events"].as_u64(), Some(0));
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert_eq!(worsening(100.0, 110.0, Better::Lower), 0.10);
        assert_eq!(worsening(100.0, 90.0, Better::Lower), -0.10);
        assert_eq!(worsening(100.0, 90.0, Better::Higher), 0.10);
        assert_eq!(worsening(100.0, 125.0, Better::Higher), -0.25);
    }

    #[test]
    fn benchmark_json_is_what_describe_prints() {
        let committed =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let committed: Value = serde_json::from_str(&committed).expect("parses");
        let described: Value = serde_json::from_str(&describe()).expect("parses");
        assert_eq!(committed, described);
        let keys: Vec<&str> = committed
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
