//! `analyze_apps`: load a long recording and run every compressed-domain
//! analysis pass over it; cost must follow the grammar's size, not the
//! 16× longer stream it stands for. Plus the per-pass probes.

use std::time::Instant;

use pythia_core::analyze::pattern::{match_grammar, parse, run_query, Dfa};
use pythia_core::analyze::protocol::{profile_from_events, profile_from_grammar, verify};
use pythia_core::analyze::race::{detect, summary_from_events, summary_from_grammar};
use pythia_core::analyze::{
    analyze_trace, lint_grammar, AnalyzeConfig, ClassTable, Diagnostic, LintOptions, PatternQuery,
    Severity,
};
use pythia_core::trace::TraceData;

use crate::harness::{Ctx, RoundOut, Run, Violation, Workload};
use crate::inputs::AppInput;
use crate::metrics::Metric;
use crate::stats;
use crate::trace::Layer;

/// Passes over the 13 long recordings per round.
pub const PASSES: usize = 6;

/// The two pattern queries every analysis evaluates: a nonblocking send
/// completed within six events, and a receive left hanging for six.
/// (Window width sets the DFA's size and so the pass's cost: width 4 costs
/// 11 ms over the 13 recordings, width 8 costs 127 ms.)
const QUERIES: [&str; 2] = ["MPI_Isend ~6 MPI_Waitall", "MPI_Irecv (!MPI_Wait){6}"];

fn queries() -> Vec<PatternQuery> {
    QUERIES
        .iter()
        .map(|q| PatternQuery::new(q, Severity::Info, false).expect("query parses"))
        .collect()
}

/// Every pass on, both queries.
fn full_config() -> AnalyzeConfig {
    AnalyzeConfig {
        patterns: queries(),
        ..AnalyzeConfig::default()
    }
}

fn long_trace(app: &AppInput) -> &std::path::Path {
    app.long_trace.as_deref().expect("long traces generated")
}

/// Nothing to build: the analyzer is a function of a trace file.
pub struct AnalyzeApps {
    config: AnalyzeConfig,
}

impl Workload for AnalyzeApps {
    type Plan = ();

    fn plan(_ctx: &Ctx) {}

    /// What a user pays before the first analysis: compiling the
    /// configuration and a first load of every recording (index prewarm
    /// included).
    fn setup(ctx: &Ctx, _plan: &()) -> Self {
        for app in &ctx.inputs.apps {
            let trace = TraceData::load(long_trace(app)).expect("load long trace");
            std::hint::black_box(trace.total_events());
        }
        AnalyzeApps {
            config: full_config(),
        }
    }

    fn round<const TRACED: bool>(&mut self, ctx: &Ctx, _plan: &(), run: &mut Run) -> RoundOut {
        let mut out = RoundOut::default();
        for pass in 0..PASSES {
            for (a, app) in ctx.inputs.apps.iter().enumerate() {
                if TRACED {
                    run.tracer
                        .operation((pass * ctx.inputs.apps.len() + a) as u64, pass == 0);
                    run.tracer.enter(Layer::TraceLoad);
                }
                let t0 = Instant::now();
                let loaded = TraceData::load(long_trace(app));
                if TRACED {
                    run.tracer.exit();
                }
                out.tally.attempted += 1;
                match loaded {
                    Ok(trace) => {
                        if TRACED {
                            run.tracer.enter(Layer::Analyze);
                        }
                        let report = analyze_trace(&trace, &self.config);
                        if TRACED {
                            run.tracer.exit();
                        }
                        run.lat.push(t0.elapsed().as_nanos() as u64);
                        out.events += trace.total_events();
                        // Findings are not failures: the verifier reports
                        // CG's sub-communicator receives as unmatched, on
                        // every run.
                        std::hint::black_box(report.diagnostics.len());
                    }
                    Err(_) => out.tally.errored += 1,
                }
                run.slice();
            }
        }
        out
    }

    fn check(ctx: &Ctx, _plan: &()) -> Vec<Violation> {
        ctx.inputs
            .apps
            .iter()
            .filter_map(|app| compressed_equals_expanded(app).err())
            .collect()
    }
}

/// Strips grammar anchors, which the event domain cannot carry.
fn unanchored(mut d: Diagnostic) -> Diagnostic {
    d.rule = None;
    d.pos = None;
    d
}

/// Verdicts computed on the grammar equal those computed on the unfolded
/// stream: protocol profiles and diagnostics, race diagnostics, and both
/// pattern queries' match results.
fn compressed_equals_expanded(app: &AppInput) -> Result<(), Violation> {
    let fail = |what: &str| {
        Violation::new(
            "analyze.compressed_equals_expanded",
            format!("{}: {what}", app.name),
        )
    };
    let trace = TraceData::load(long_trace(app)).map_err(|e| fail(&e.to_string()))?;
    let classes = ClassTable::from_registry(trace.registry());
    let expanded: Vec<_> = trace.threads().iter().map(|t| t.grammar.unfold()).collect();

    let from_grammar: Vec<_> = trace
        .threads()
        .iter()
        .map(|t| profile_from_grammar(&t.grammar, &classes))
        .collect();
    let from_events: Vec<_> = expanded
        .iter()
        .map(|e| profile_from_events(e.iter().copied(), &classes))
        .collect();
    if from_grammar != from_events || verify(&from_grammar) != verify(&from_events) {
        return Err(fail("protocol verdicts differ"));
    }

    let race_grammar: Vec<_> = trace
        .threads()
        .iter()
        .map(|t| summary_from_grammar(&t.grammar, &classes))
        .collect();
    let race_events: Vec<_> = expanded
        .iter()
        .map(|e| summary_from_events(e.iter().copied(), &classes))
        .collect();
    let strip = |d: Vec<Diagnostic>| d.into_iter().map(unanchored).collect::<Vec<_>>();
    if strip(detect(&race_grammar)) != strip(detect(&race_events)) {
        return Err(fail("race verdicts differ"));
    }

    for query in QUERIES {
        let ast = parse(query).map_err(|e| fail(&e))?;
        let dfa = Dfa::compile(&ast, trace.registry()).map_err(|e| fail(&e))?;
        for (thread, events) in trace.threads().iter().zip(&expanded) {
            if match_grammar(&thread.grammar, &dfa) != dfa.match_events(events.iter().copied()) {
                return Err(fail(&format!("pattern '{query}' matches differ")));
            }
        }
    }
    Ok(())
}

/// Rounds the probe runs; each timing is the median over them.
const PROBE_ROUNDS: usize = 5;

/// Each analysis pass alone, over the 13 long recordings, through the
/// pass's public functions (predictability has none: it is the full
/// driver with only that pass on, minus the driver with every pass off).
pub fn probe(ctx: &Ctx) -> Vec<Metric> {
    let traces: Vec<TraceData> = ctx
        .inputs
        .apps
        .iter()
        .map(|app| TraceData::load(long_trace(app)).expect("load long trace"))
        .collect();
    let all_off = AnalyzeConfig {
        lint: false,
        protocol: false,
        race: false,
        predictability: false,
        ..AnalyzeConfig::default()
    };
    let only_predictability = AnalyzeConfig {
        predictability: true,
        ..all_off.clone()
    };
    let queries = queries();
    let timed_us = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_nanos() as f64 / 1e3
    };
    let mut us: [Vec<f64>; 5] = Default::default();
    for _ in 0..PROBE_ROUNDS {
        us[0].push(timed_us(&mut || {
            for trace in &traces {
                for t in trace.threads() {
                    let options = LintOptions {
                        expected_events: Some(t.event_count),
                        annotate_positions: true,
                    };
                    std::hint::black_box(lint_grammar(&t.grammar, &options).len());
                }
            }
        }));
        us[1].push(timed_us(&mut || {
            for trace in &traces {
                let classes = ClassTable::from_registry(trace.registry());
                let profiles: Vec<_> = trace
                    .threads()
                    .iter()
                    .map(|t| profile_from_grammar(&t.grammar, &classes))
                    .collect();
                std::hint::black_box(verify(&profiles).len());
            }
        }));
        us[2].push(timed_us(&mut || {
            for trace in &traces {
                let classes = ClassTable::from_registry(trace.registry());
                let summaries: Vec<_> = trace
                    .threads()
                    .iter()
                    .map(|t| summary_from_grammar(&t.grammar, &classes))
                    .collect();
                std::hint::black_box(detect(&summaries).len());
            }
        }));
        us[3].push(timed_us(&mut || {
            for trace in &traces {
                let sound = vec![true; trace.thread_count()];
                for query in &queries {
                    std::hint::black_box(run_query(query, trace, &sound).len());
                }
            }
        }));
        let with = timed_us(&mut || {
            for trace in &traces {
                std::hint::black_box(analyze_trace(trace, &only_predictability).threads.len());
            }
        });
        let without = timed_us(&mut || {
            for trace in &traces {
                std::hint::black_box(analyze_trace(trace, &all_off).threads.len());
            }
        });
        us[4].push(with - without);
    }
    let config = full_config();
    let (mut diagnostics, mut symbols) = (0, 0);
    for trace in &traces {
        let report = analyze_trace(trace, &config);
        diagnostics += report.diagnostics.len();
        symbols += report.threads.iter().map(|t| t.grammar_size).sum::<u64>();
    }
    let [lint, protocol, race, pattern, predictability] = us.map(|mut v| stats::median(&mut v));
    vec![
        Metric::new("core.analyze.lint_us", lint, "us"),
        Metric::new("core.analyze.protocol_us", protocol, "us"),
        Metric::new("core.analyze.race_us", race, "us"),
        Metric::new("core.analyze.pattern_us", pattern, "us"),
        Metric::new("core.analyze.predictability_us", predictability, "us"),
        Metric::new(
            "core.analyze.pattern_over_race_ratio",
            pattern / race,
            "ratio",
        ),
        Metric::new(
            "core.analyze.diagnostics_total",
            diagnostics as f64,
            "count",
        ),
        Metric::new(
            "core.analyze.grammar_symbols_total",
            symbols as f64,
            "count",
        ),
    ]
}
