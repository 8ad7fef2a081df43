//! `pythia_benchmark`: the repository's benchmark. One command prints
//! every metric of one workload by name and unit, checks the program's
//! outputs, and exits non-zero on any violation. See `README.md`.

mod expected;
mod harness;
mod inputs;
mod metrics;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use harness::{Ctx, Measured, Violation, Workload};
use metrics::{Metric, WORKLOADS};
use report::Report;
use trace::{Layer, Tracer};

#[global_allocator]
static GLOBAL: probes::CountingAlloc = probes::CountingAlloc;

/// Seconds one run measures unless `--seconds` says otherwise; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 8;

/// Seed used unless `--seed` says otherwise.
pub const DEFAULT_SEED: u64 = 1;

const USAGE: &str = "\
pythia_benchmark --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--json <out>]
pythia_benchmark --all       [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--json <out>]
pythia_benchmark --selfcheck [--seed <u64>] [--seconds <n>]
pythia_benchmark --describe

  --workload <name>  run one workload; the last line of stdout is its result as JSON
  --all              run every workload, each in a process of its own
  --selfcheck        run --all twice and compare the two sets within the bounds
  --describe         print the contents of BENCHMARK.json
  --trace 1          traced run: per-layer metrics and trace.<workload>.json
  --json <out>       also write the full report (ends with \"claim\": null)";

#[derive(Clone, Copy)]
enum Mode {
    /// One workload, by its name in [`WORKLOADS`].
    One(&'static str),
    All,
    Selfcheck,
    Describe,
}

struct Options {
    mode: Mode,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut mode = None;
    let (mut seed, mut seconds, mut trace, mut json) =
        (DEFAULT_SEED, RUN_SECONDS as f64, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let def = WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name}; one of {}", names.join(", "))
                })?;
                mode = Some(Mode::One(def.name));
            }
            "--all" => mode = Some(Mode::All),
            "--selfcheck" => mode = Some(Mode::Selfcheck),
            "--describe" => mode = Some(Mode::Describe),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            // Absolute now: a run changes its working directory.
            "--json" => {
                json = Some(std::path::absolute(value()?).map_err(|e| format!("--json: {e}"))?);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Options {
        mode: mode.ok_or("one of --workload, --all, --selfcheck, --describe is needed")?,
        seed,
        seconds,
        trace,
        json,
    })
}

/// Where a run keeps its files: next to the executable, so inside the
/// checkout's build directory and nowhere else.
struct Scratch {
    /// Removed when the run ends; also the working directory.
    tmp: PathBuf,
    /// Kept: trace files land here.
    out: PathBuf,
}

fn scratch() -> std::io::Result<Scratch> {
    let exe = std::env::current_exe()?;
    let base = exe.parent().unwrap_or(Path::new(".")).to_owned();
    let tmp = base
        .join("pythia_benchmark.tmp")
        .join(std::process::id().to_string());
    let out = base.join("pythia_benchmark.out");
    std::fs::create_dir_all(&tmp)?;
    std::fs::create_dir_all(&out)?;
    Ok(Scratch { tmp, out })
}

/// Derives the end-to-end metrics from a measurement.
fn end_to_end(m: &Measured) -> Vec<Metric> {
    let mut out = vec![
        Metric::new("events_per_s", m.events_per_s(), "events/s"),
        Metric::new("op_p50_us", m.op_p50_us(), "us"),
        Metric::new("setup_s", m.setup_s(), "s"),
    ];
    match probes::peak_rss_mib() {
        Some(mib) => out.push(Metric::new("peak_rss_mb", mib, "MiB")),
        None => eprintln!("warning: /proc/self/status unavailable, peak_rss_mb omitted"),
    }
    out
}

/// Derives the per-layer metrics of the workload's own traced rounds.
fn traced_rounds(m: &Measured, tracer: &Tracer) -> Vec<Metric> {
    let rounds = m.rounds.len() as f64;
    let per_round_ms = |ns: u64| ns as f64 / 1e6 / rounds;
    let traced_ns = m.mean_round_ns();
    let untraced_ns = m
        .untraced_wall_ns
        .expect("traced runs time untraced rounds");
    let mut out = vec![
        Metric::new("trace.round_ms", traced_ns / 1e6, "ms"),
        Metric::new("trace.untraced_round_ms", untraced_ns / 1e6, "ms"),
        Metric::new(
            "bench.trace_overhead_ratio",
            traced_ns / untraced_ns,
            "ratio",
        ),
        Metric::new(
            "trace.unexplained_ms",
            per_round_ms(tracer.total(Layer::Round).self_ns),
            "ms",
        ),
    ];
    for layer in Layer::ALL {
        if layer != Layer::Round {
            out.push(Metric::new(
                format!("trace.self_ms.{}", layer.name()),
                per_round_ms(tracer.total(layer).self_ns),
                "ms",
            ));
        }
    }
    out.push(Metric::new(
        "trace.spans_recorded",
        tracer.spans().len() as f64,
        "count",
    ));
    out.push(Metric::new(
        "trace.spans_dropped",
        tracer.dropped as f64,
        "count",
    ));
    if let Some((p, ns)) = stats::tail_sorted(&m.pooled_lat) {
        out.push(Metric::new("op.tail_us", ns as f64 / 1e3, "us"));
        out.push(Metric::new("op.tail_percentile", p as f64 / 100.0, "%"));
    }
    out.push(Metric::new(
        "op.samples",
        m.pooled_lat.len() as f64,
        "count",
    ));

    let kevents = m.total.events as f64 / 1e3;
    let ops = m.total.tally.attempted as f64;
    out.push(Metric::new(
        "proc.allocs_per_kevent",
        m.counters.allocs as f64 / kevents,
        "count",
    ));
    match m.counters.ctx_switches {
        Some(n) => out.push(Metric::new(
            "proc.ctx_switches_per_op",
            n as f64 / ops,
            "count",
        )),
        None => eprintln!("warning: /proc/self/task unavailable, ctx_switches omitted"),
    }
    match m.counters.write_syscalls {
        Some(n) => out.push(Metric::new(
            "proc.write_syscalls_per_kevent",
            n as f64 / kevents,
            "count",
        )),
        None => eprintln!("warning: /proc/self/io unavailable, write_syscalls omitted"),
    }
    out
}

/// The workload's exact counts, as per-layer metrics.
fn workload_counts(m: &Measured) -> Vec<Metric> {
    let r = &m.per_round;
    let ratio = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    vec![
        Metric::new(
            "workload.accuracy_d1",
            ratio(r.d1_correct, r.d1_scored),
            "ratio",
        ),
        Metric::new(
            "workload.trace_bytes_per_kevent",
            ratio(r.trace_bytes * 1_000, r.trace_events),
            "bytes",
        ),
        Metric::new(
            "workload.failed_ratio",
            m.total.tally.failed_ratio(),
            "ratio",
        ),
        Metric::new("workload.events_per_round", r.events as f64, "count"),
        Metric::new("workload.ops_per_round", r.tally.attempted as f64, "count"),
    ]
}

/// Everything a traced run prints: every layer probe, then the workload's
/// own traced rounds and counts, then the harness's own numbers.
fn per_layer(ctx: &Ctx, m: &Measured, tracer: &Tracer, pinned: Option<usize>) -> Vec<Metric> {
    let mut metrics = workloads::record::probe(ctx);
    metrics.extend(workloads::predict::probe(ctx));
    metrics.extend(workloads::serve::probe(ctx));
    metrics.extend(workloads::mpi_apps::probe(ctx));
    metrics.extend(workloads::mpi_socket::probe(ctx));
    metrics.extend(workloads::analyze::probe(ctx));
    metrics.extend(traced_rounds(m, tracer));
    metrics.extend(workload_counts(m));
    metrics.extend([
        Metric::new("bench.calib_ns", m.calib_ns(), "ns"),
        Metric::new("bench.raw_events_per_s", m.raw_events_per_s(), "events/s"),
        Metric::new("bench.raw_op_p50_us", m.raw_op_p50_us(), "us"),
        Metric::new("bench.inputgen_s", ctx.inputs.seconds, "s"),
    ]);
    match pinned {
        Some(cpu) => metrics.push(Metric::new("bench.pinned_cpu", cpu as f64, "count")),
        None => eprintln!("warning: not pinned to a CPU, bench.pinned_cpu omitted"),
    }
    metrics
}

/// Measures `W`, checks it, and assembles the report.
fn run<W: Workload>(
    name: &'static str,
    ctx: &Ctx,
    options: &Options,
    pinned: Option<usize>,
    out_dir: &Path,
) -> Report {
    // A traced run splits its time between the traced rounds and the
    // untraced ones and probes that go with them.
    let seconds = if options.trace {
        options.seconds / 2.0
    } else {
        options.seconds
    };
    let m = harness::measure::<W>(ctx, seconds, options.trace);

    let mut violations = W::check(ctx, &W::plan(ctx));
    if m.unsteady_rounds > 0 {
        violations.push(Violation::new(
            "harness.fixed_work",
            format!(
                "{} of {} rounds did different work than the first",
                m.unsteady_rounds,
                m.rounds.len()
            ),
        ));
    }
    violations.extend(expected::compare(name, ctx.seed, &m.per_round));

    let mut metrics = match &m.tracer {
        Some(tracer) => {
            let path = out_dir.join(format!("trace.{name}.json"));
            match std::fs::write(&path, tracer.to_json(name)) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => violations.push(Violation::new("harness.trace_file", e.to_string())),
            }
            per_layer(ctx, &m, tracer, pinned)
        }
        None => end_to_end(&m),
    };
    for metric in &metrics {
        if !metric.value.is_finite() {
            violations.push(Violation::new(
                "harness.finite",
                format!("{} = {}", metric.name, metric.value),
            ));
        }
    }
    metrics.retain(|metric| metric.value.is_finite());

    Report {
        workload: name,
        seed: ctx.seed,
        traced: options.trace,
        tally: m.total.tally,
        per_round: m.per_round,
        quartiles: m.quartiles().to_vec(),
        rounds: m.rounds,
        metrics,
        violations,
    }
}

/// Runs one workload in this process.
fn run_one(name: &'static str, options: &Options) -> Result<Report, String> {
    // Nothing ambient may inject faults or arm failure detectors in a
    // measured run (not every config the workloads reach can be pinned).
    std::env::remove_var(pythia_core::resilience::faults::CHAOS_ENV);
    std::env::remove_var(pythia_minimpi::RANK_TIMEOUT_ENV);
    let dirs = scratch().map_err(|e| format!("scratch directory: {e}"))?;
    // Relative socket paths resolve here (a socket path has 108 bytes).
    std::env::set_current_dir(&dirs.tmp).map_err(|e| format!("chdir: {e}"))?;

    let want = inputs::Want {
        long_traces: options.trace || name == "analyze_apps",
        solo: options.trace || name == "mpi_apps",
    };
    let inputs = inputs::Inputs::generate(&dirs.tmp, want);
    if let Err(mismatch) = expected::check_inputs(&inputs) {
        let _ = std::fs::remove_dir_all(&dirs.tmp);
        return Err(mismatch);
    }
    let pinned = probes::pin_to_first_cpu();
    if pinned.is_none() {
        eprintln!("warning: could not pin to one CPU; hand-off latencies will be bimodal");
    }
    let ctx = Ctx {
        inputs: &inputs,
        seed: options.seed,
        dir: &dirs.tmp,
    };
    let out = &dirs.out;
    let report = match name {
        "record_apps" => run::<workloads::record::RecordApps>(name, &ctx, options, pinned, out),
        "predict_apps" => {
            run::<workloads::predict::Predict<false>>(name, &ctx, options, pinned, out)
        }
        "predict_noisy" => {
            run::<workloads::predict::Predict<true>>(name, &ctx, options, pinned, out)
        }
        "serve_batch" => run::<workloads::serve::Serve<64>>(name, &ctx, options, pinned, out),
        "serve_single" => run::<workloads::serve::Serve<1>>(name, &ctx, options, pinned, out),
        "mpi_apps" => run::<workloads::mpi_apps::MpiApps>(name, &ctx, options, pinned, out),
        "mpi_socket" => run::<workloads::mpi_socket::MpiSocket>(name, &ctx, options, pinned, out),
        "analyze_apps" => run::<workloads::analyze::AnalyzeApps>(name, &ctx, options, pinned, out),
        _ => unreachable!("WORKLOADS and this match list the same names"),
    };
    let _ = std::fs::remove_dir_all(&dirs.tmp);
    Ok(report)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match options.mode {
        Mode::Describe => {
            println!("{}", report::describe());
            ExitCode::SUCCESS
        }
        Mode::One(name) => match run_one(name, &options) {
            Ok(report) => {
                report.print();
                if let Some(path) = &options.json {
                    if let Err(e) = std::fs::write(path, report.full_json()) {
                        eprintln!("error: write {}: {e}", path.display());
                        return ExitCode::from(2);
                    }
                }
                // Last line of stdout: the result.
                println!("{}", report.result_line());
                if report.correct() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::from(1)
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        },
        Mode::All => report::run_all(
            options.json.as_deref(),
            options.seed,
            options.seconds,
            options.trace,
        ),
        Mode::Selfcheck => report::selfcheck(options.seed, options.seconds),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let o = parse_args(&args(
            "--workload serve_single --seed 42 --seconds 6 --trace 1",
        ))
        .expect("parses");
        assert!(matches!(o.mode, Mode::One("serve_single")));
        assert_eq!((o.seed, o.seconds, o.trace), (42, 6.0, true));
        let o = parse_args(&args("--workload mpi_apps")).expect("parses");
        assert_eq!(
            (o.seed, o.seconds, o.trace),
            (DEFAULT_SEED, RUN_SECONDS as f64, false)
        );
    }

    #[test]
    fn typos_are_refused_not_ignored() {
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload mpi_apps --trace yes")).is_err());
        assert!(parse_args(&args("--workload mpi_apps --sed 3")).is_err());
        assert!(parse_args(&args("--workload mpi_apps --seed")).is_err());
        assert!(parse_args(&args("--workload mpi_apps --seconds 0")).is_err());
        assert!(parse_args(&args("--seed 3")).is_err());
    }
}
