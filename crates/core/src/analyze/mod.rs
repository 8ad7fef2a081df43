//! Static analysis of compressed traces (grammar-domain, no decompression).
//!
//! PYTHIA's premise (paper §II-A) is that the compressed grammar *is* the
//! trace, so correctness checks run on the grammar too — the way race
//! detection has been run directly on compressed traces (Kini, Mathur,
//! Viswanathan, *Data Race Detection on Compressed Traces*). This module
//! implements five passes, each O(|grammar| · ranks), never O(|trace|):
//!
//! * [`lint`] — a release-mode **grammar linter**: the invariants of the
//!   reduction (digram uniqueness, rule utility, repetition-exponent
//!   sanity, acyclicity, refcount recount, reachability) checked on a
//!   *loaded* grammar and reported as structured diagnostics with a rule
//!   id, body position, and approximate event index;
//! * [`protocol`] — a **cross-rank MPI protocol verifier**: per-rule
//!   send/recv/collective summaries composed bottom-up over the rule DAG
//!   (repetition exponents multiply counts; the collective sequence is
//!   tracked with a composable polynomial hash, so two ranks compare in
//!   O(1) after an O(|grammar|) sweep) flagging unmatched point-to-point
//!   traffic, collective-sequence divergence, `MPI_ANY_SOURCE` ambiguity
//!   and wait-for cycles in the recorded run;
//! * [`race`] — a **happens-before race detector**: per-rule sets of
//!   barrier epochs at which each rank touches each object, folded into
//!   arithmetic progressions that repetition exponents scale in closed
//!   form, intersected across ranks with the extended Euclidean algorithm
//!   to find the earliest conflicting unordered access pair;
//! * [`pattern`] — a **pattern-query matcher**: a small regular pattern
//!   language compiled to a scanning DFA over symbol classes, whose
//!   effect on a rule is summarized as `(rule, entry state) → (state,
//!   match count, earliest hit)` for the entry states the stream reaches,
//!   loops being walked to the fixed point of the entry state's orbit;
//! * [`predictability`] — a **predictability report**: per-rule expansion
//!   lengths, compression ratio, and per-event distance-1 branching
//!   entropy computed from the grammar's weighted bigram distribution,
//!   cross-referenced with the accuracy watchdog's tolerance
//!   ([`crate::resilience::BreakerConfig::max_error_rate`]) so trace
//!   owners can see *in advance* which event classes would quarantine a
//!   predicting oracle.
//!
//! [`analyze_trace`] runs the configured passes over a [`TraceData`] and
//! returns an [`AnalysisReport`]; diagnostics serialize to JSON
//! ([`AnalysisReport::to_json`]) and human-readable text
//! ([`AnalysisReport::render_text`]). The `pythia-analyze` CLI (in
//! `pythia-bench`) wraps this for files on disk and maps `deny`-level
//! findings to a non-zero exit code for CI use.

pub mod lint;
pub mod pattern;
pub mod predictability;
pub mod protocol;
pub mod race;

pub use lint::{lint_grammar, LintOptions};
pub use pattern::{MatchResult, PatternQuery};
pub use predictability::{EventPredictability, PredictabilityReport};
pub use protocol::{classify, ClassTable, EventClass, RankProfile};
pub use race::RaceSummary;

use crate::trace::TraceData;

/// How bad a finding is. Ordered: `Info < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory: not a defect, but information a trace owner wants (e.g. a
    /// poorly predictable event class).
    Info,
    /// Suspicious but not trusted-input-breaking (e.g. a rule used only
    /// once: valid to expand, wasteful to keep).
    Warning,
    /// The trace violates an invariant or the recorded run violates the
    /// MPI protocol; strict loaders reject these.
    Error,
}

impl Severity {
    /// Lowercase label used in text and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Which pass produced a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pass {
    /// The grammar linter.
    Lint,
    /// The cross-rank MPI protocol verifier.
    Protocol,
    /// The happens-before race detector.
    Race,
    /// The pattern-query matcher.
    Pattern,
    /// The predictability report.
    Predictability,
}

impl Pass {
    /// Lowercase label used in text and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Pass::Lint => "lint",
            Pass::Protocol => "protocol",
            Pass::Race => "race",
            Pass::Pattern => "pattern",
            Pass::Predictability => "predictability",
        }
    }
}

/// One structured finding, anchored to the grammar (never to an expanded
/// event stream: positions are `(rule, pos)` plus an *approximate* event
/// index derived from the rule's first occurrence).
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Severity of the finding.
    pub severity: Severity,
    /// The pass that produced it.
    pub pass: Pass,
    /// Stable machine-readable code, e.g. `digram-duplicate`,
    /// `unmatched-send`.
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
    /// Trace thread (MPI rank) the finding belongs to, if any.
    pub thread: Option<usize>,
    /// Rule id within that thread's grammar, if anchored.
    pub rule: Option<u32>,
    /// Body position within the rule, if anchored.
    pub pos: Option<usize>,
    /// Approximate index into the expanded event stream (the first
    /// occurrence of the anchored location), if computable.
    pub event_index: Option<u64>,
}

impl Diagnostic {
    /// A finding not anchored to any grammar location.
    pub fn new(severity: Severity, pass: Pass, code: &'static str, message: String) -> Self {
        Diagnostic {
            severity,
            pass,
            code,
            message,
            thread: None,
            rule: None,
            pos: None,
            event_index: None,
        }
    }

    /// Attaches the owning thread (rank).
    pub fn on_thread(mut self, thread: usize) -> Self {
        self.thread = Some(thread);
        self
    }

    /// Attaches a grammar anchor.
    pub fn at(mut self, rule: u32, pos: usize) -> Self {
        self.rule = Some(rule);
        self.pos = Some(pos);
        self
    }

    /// Attaches the approximate event index.
    pub fn near_event(mut self, index: u64) -> Self {
        self.event_index = Some(index);
        self
    }

    /// JSON value for machine consumption.
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "severity": self.severity.label(),
            "pass": self.pass.label(),
            "code": self.code,
            "message": self.message,
            "thread": self.thread,
            "rule": self.rule,
            "pos": self.pos,
            "event_index": self.event_index,
        })
    }

    /// One-line rendering: `error[digram-duplicate] thread 0 R5[2] @~1234: …`.
    pub fn render(&self) -> String {
        let mut head = format!("{}[{}]", self.severity, self.code);
        if let Some(t) = self.thread {
            head.push_str(&format!(" thread {t}"));
        }
        if let (Some(r), Some(p)) = (self.rule, self.pos) {
            head.push_str(&format!(" R{r}[{p}]"));
        } else if let Some(r) = self.rule {
            head.push_str(&format!(" R{r}"));
        }
        if let Some(i) = self.event_index {
            head.push_str(&format!(" @~{i}"));
        }
        format!("{head}: {}", self.message)
    }
}

/// Pass selection and thresholds for [`analyze_trace`].
#[derive(Debug, Clone)]
pub struct AnalyzeConfig {
    /// Run the grammar linter.
    pub lint: bool,
    /// Run the cross-rank MPI protocol verifier.
    pub protocol: bool,
    /// Run the happens-before race detector.
    pub race: bool,
    /// Pattern queries to evaluate (each produces its own diagnostics).
    pub patterns: Vec<PatternQuery>,
    /// Run the predictability report.
    pub predictability: bool,
    /// Predictability: flag events whose best-successor probability falls
    /// below this (default: `1 - BreakerConfig::default().max_error_rate`,
    /// i.e. events the accuracy watchdog would be expected to trip on).
    pub min_successor_probability: f64,
    /// Predictability: keep the `N` least predictable events per thread.
    pub top: usize,
}

impl Default for AnalyzeConfig {
    fn default() -> Self {
        AnalyzeConfig {
            lint: true,
            protocol: true,
            race: true,
            patterns: Vec::new(),
            predictability: true,
            min_successor_probability: 1.0
                - crate::resilience::BreakerConfig::default().max_error_rate,
            top: 5,
        }
    }
}

/// Shape metrics of one thread's grammar (Table I-style, computed without
/// unfolding).
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadStats {
    /// Thread (rank) index.
    pub thread: usize,
    /// Events the grammar expands to (`trace_len`).
    pub events: u64,
    /// Live rules.
    pub rules: usize,
    /// Total symbol uses across all rule bodies (the grammar's "size").
    pub grammar_size: u64,
    /// `events / grammar_size` — how much the reduction compressed.
    pub compression_ratio: f64,
}

/// Everything [`analyze_trace`] found.
#[derive(Debug, Clone, Default)]
pub struct AnalysisReport {
    /// All findings, sorted most severe first (ties: pass, code, thread).
    pub diagnostics: Vec<Diagnostic>,
    /// Per-thread grammar shape metrics.
    pub threads: Vec<ThreadStats>,
    /// The predictability report, when that pass ran.
    pub predictability: Option<PredictabilityReport>,
}

impl AnalysisReport {
    /// The most severe finding, or `None` when the report is clean.
    pub fn worst_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// Whether any finding is at `level` or above (the CLI's `--deny`).
    pub fn exceeds(&self, level: Severity) -> bool {
        self.worst_severity().is_some_and(|s| s >= level)
    }

    /// Number of findings at exactly `level`.
    pub fn count(&self, level: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == level)
            .count()
    }

    fn sort(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| a.pass.label().cmp(b.pass.label()))
                .then_with(|| a.code.cmp(b.code))
                .then_with(|| a.thread.cmp(&b.thread))
                .then_with(|| a.event_index.cmp(&b.event_index))
        });
    }

    /// JSON document for machine consumption.
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "diagnostics": self.diagnostics.iter().map(Diagnostic::to_json)
                .collect::<Vec<_>>(),
            "threads": self.threads.iter().map(|t| serde_json::json!({
                "thread": t.thread,
                "events": t.events,
                "rules": t.rules,
                "grammar_size": t.grammar_size,
                "compression_ratio": t.compression_ratio,
            })).collect::<Vec<_>>(),
            "predictability": self.predictability.as_ref().map(|p| p.to_json()),
            "summary": serde_json::json!({
                "errors": self.count(Severity::Error),
                "warnings": self.count(Severity::Warning),
                "infos": self.count(Severity::Info),
            }),
        })
    }

    /// Human-readable multi-line rendering.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for t in &self.threads {
            let _ = writeln!(
                out,
                "thread {}: {} events, {} rules, grammar size {}, \
                 compression {:.1}x",
                t.thread, t.events, t.rules, t.grammar_size, t.compression_ratio
            );
        }
        for d in &self.diagnostics {
            let _ = writeln!(out, "{}", d.render());
        }
        if let Some(p) = &self.predictability {
            out.push_str(&p.render_text());
        }
        let _ = writeln!(
            out,
            "{} error(s), {} warning(s), {} info(s)",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
        );
        out
    }
}

/// Runs the configured passes over a loaded trace.
///
/// The linter runs per thread on the raw grammar and reads the thread's
/// prebuilt [`crate::grammar::GrammarIndex`] for the length check and the
/// position annotation (a loaded trace's grammars are acyclic, which the
/// loader proves before indexing). The protocol verifier, race detector and
/// predictability report only run when every thread's grammar carries no
/// lint *error* (their summary algebra assumes an acyclic grammar, and
/// their verdicts compare ranks against each other); pattern queries run
/// per thread, skipping unsound ones.
pub fn analyze_trace(trace: &TraceData, cfg: &AnalyzeConfig) -> AnalysisReport {
    let mut report = AnalysisReport::default();
    let mut sound = Vec::with_capacity(trace.thread_count());
    for (i, t) in trace.threads().iter().enumerate() {
        let index = t.index();
        let diags = lint::lint_indexed(
            &t.grammar,
            &LintOptions {
                expected_events: Some(t.event_count),
                annotate_positions: true,
            },
            Some(&index),
        );
        let ok = !diags.iter().any(|d| d.severity == Severity::Error);
        sound.push(ok);
        report.diagnostics.extend(
            diags
                .into_iter()
                .map(|d| d.on_thread(i))
                .filter(|_| cfg.lint),
        );
        if ok {
            let grammar_size: u64 = t
                .grammar
                .iter_rules()
                .map(|(_, r)| r.body.len() as u64)
                .sum();
            report.threads.push(ThreadStats {
                thread: i,
                events: index.trace_len(),
                rules: t.grammar.rule_count(),
                grammar_size,
                compression_ratio: if grammar_size == 0 {
                    1.0
                } else {
                    index.trace_len() as f64 / grammar_size as f64
                },
            });
        }
    }

    let all_sound = sound.iter().all(|&ok| ok);
    let classes = (cfg.protocol || cfg.race).then(|| ClassTable::from_registry(trace.registry()));

    if cfg.protocol && all_sound {
        let classes = classes.as_ref().expect("built when protocol is on");
        let profiles: Vec<RankProfile> = trace
            .threads()
            .iter()
            .map(|t| protocol::profile_from_grammar(&t.grammar, classes))
            .collect();
        let mut diags = protocol::verify(&profiles);
        protocol::localize_collective_divergence(trace, classes, &mut diags);
        report.diagnostics.extend(diags);
    }

    if cfg.race && all_sound {
        let classes = classes.as_ref().expect("built when race is on");
        let summaries: Vec<RaceSummary> = trace
            .threads()
            .iter()
            .map(|t| race::summary_from_grammar(&t.grammar, classes))
            .collect();
        report.diagnostics.extend(race::detect(&summaries));
    }

    for query in &cfg.patterns {
        report
            .diagnostics
            .extend(pattern::run_query(query, trace, &sound));
    }

    if cfg.predictability && all_sound {
        let (pred, diags) = predictability::report(trace, cfg);
        report.diagnostics.extend(diags);
        report.predictability = Some(pred);
    }

    report.sort();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventRegistry;
    use crate::record::{RecordConfig, Recorder};
    use crate::trace::TraceData;

    fn clean_trace() -> TraceData {
        let mut registry = EventRegistry::new();
        let a = registry.intern("MPI_Barrier", None);
        let b = registry.intern("MPI_Allreduce", Some(0));
        let mut rec = Recorder::new(RecordConfig::default());
        for _ in 0..16 {
            rec.record(a);
            rec.record(b);
        }
        rec.finish(&registry).unwrap()
    }

    #[test]
    fn clean_trace_is_clean() {
        let report = analyze_trace(&clean_trace(), &AnalyzeConfig::default());
        assert!(
            !report.exceeds(Severity::Warning),
            "{}",
            report.render_text()
        );
        assert_eq!(report.threads.len(), 1);
        assert!(report.threads[0].compression_ratio > 1.0);
        assert!(report.predictability.is_some());
    }

    #[test]
    fn severity_orders() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
        assert_eq!(Severity::Error.label(), "error");
    }

    #[test]
    fn report_json_has_summary() {
        let report = analyze_trace(&clean_trace(), &AnalyzeConfig::default());
        let v = report.to_json();
        assert_eq!(v["summary"]["errors"].as_u64(), Some(0));
        assert!(v["threads"].as_array().unwrap().len() == 1);
    }

    #[test]
    fn diagnostic_render_carries_anchor() {
        let d = Diagnostic::new(
            Severity::Error,
            Pass::Lint,
            "digram-duplicate",
            "dup".into(),
        )
        .on_thread(2)
        .at(5, 3)
        .near_event(100);
        let s = d.render();
        assert!(s.contains("error[digram-duplicate]"), "{s}");
        assert!(s.contains("thread 2"), "{s}");
        assert!(s.contains("R5[3]"), "{s}");
        assert!(s.contains("@~100"), "{s}");
    }
}
