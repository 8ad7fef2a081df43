//! Metric values and the tables that define every metric the benchmark
//! prints; `/BENCHMARK.json` lists the same names (pinned by a test).

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// As spelled in `BENCHMARK.json`.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A workload: its name and the one-line reason it exists.
pub struct WorkloadDef {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why it was chosen.
    pub why: &'static str,
}

/// The eight workloads, in the order `--all` runs them.
pub const WORKLOADS: [WorkloadDef; 8] = [
    WorkloadDef {
        name: "record_apps",
        why: "PYTHIA-RECORD life cycle: grammar builder, journal and trace writer do all the work, predictor none",
    },
    WorkloadDef {
        name: "predict_apps",
        why: "PYTHIA-PREDICT on the tracking path (Fig. 8 setting): index, walker and hardened facade dominate, journal and wire idle",
    },
    WorkloadDef {
        name: "predict_noisy",
        why: "same layer, 10 % seeded noise: re-seeding dominates, so a tracking gain that costs re-seeding shows here",
    },
    WorkloadDef {
        name: "serve_batch",
        why: "64-event requests over a Unix socket: observe_batch dominates, framing, syscalls and the queue hop are amortised",
    },
    WorkloadDef {
        name: "serve_single",
        why: "one-event requests on the same server: codec, syscalls and the shard hop dominate, oracle work is near zero",
    },
    WorkloadDef {
        name: "mpi_apps",
        why: "13 apps on a 1-rank world in vanilla, record and predict mode: runtime-mpi facade and minimpi call paths without inter-rank waiting",
    },
    WorkloadDef {
        name: "mpi_socket",
        why: "2 ranks over Hub + SocketComm exchanging halos: transport-dominated, the facade's share is negligible",
    },
    WorkloadDef {
        name: "analyze_apps",
        why: "load + every analysis pass on 16x-repeated recordings: cost must follow grammar size, not stream length",
    },
];

/// An end-to-end metric: what a user of the system sees. Every workload
/// reports every one of them, and none can be zero.
pub struct EndToEndDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Relative worsening of the median that counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics.
///
/// The bounds are what the reference box allows, not what one would wish.
/// Ten runs on ten seeds spread (interquartile range over median) by 1–5 %
/// (`events_per_s`) and 1–6 % (`op_p50_us`) in a quiet hour; but the box
/// has disturbed hours, in which whole runs are 5–30 % slower and the same
/// spreads reached 13 % and 17 %. Peak memory of these 6–27 MiB processes
/// spreads by up to 6 %, `setup_s` (file creation, thread starts) by 5–
/// 27 %.
pub const END_TO_END: [EndToEndDef; 4] = [
    EndToEndDef {
        name: "events_per_s",
        unit: "events/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEndDef {
        name: "op_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric: name, unit, direction. Which end-to-end metric each
/// should move, on which workload, is tabulated in `README.md`.
pub struct PerLayerDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayerDef {
    PerLayerDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayerDef {
    PerLayerDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer metrics a traced run prints, on every workload: the
/// layer probes (the same code whatever the workload), then what the
/// traced rounds of the workload itself showed, then the harness's own.
pub const PER_LAYER: &[PerLayerDef] = &[
    // Record side.
    lower("core.grammar.append_ns_per_event", "ns"),
    lower("core.record.plain_ns_per_event", "ns"),
    lower("core.persist.journal_ns_per_event", "ns"),
    lower("core.record.finish_us_per_thread", "us"),
    lower("core.trace.save_us_per_trace", "us"),
    lower("core.event.intern_ns", "ns"),
    lower("core.record.chunk_p99_us", "us"),
    lower("core.persist.journal_bytes_per_event", "bytes"),
    lower("core.persist.write_syscalls_per_kevent", "count"),
    lower("core.grammar.rules_total", "count"),
    lower("core.record.allocs_per_kevent", "count"),
    lower("core.trace.bytes_per_kevent", "bytes"),
    // Load.
    lower("core.trace.load_us_per_trace", "us"),
    lower("core.grammar.index_build_us_per_thread", "us"),
    // Predict side.
    lower("core.predict.observe_ns_per_event", "ns"),
    lower("core.predict.query_d1_ns", "ns"),
    lower("core.predict.query_d8_ns", "ns"),
    lower("core.predict.query_d64_ns", "ns"),
    lower("core.predict.query_p99_ns", "ns"),
    lower("core.resilience.overhead_ratio", "ratio"),
    lower("core.predict.reseed_ns_per_reseed", "ns"),
    lower("core.predict.reseeds_per_kevent", "count"),
    lower("core.predict.candidates_mean", "count"),
    higher("core.predict.accuracy_d1", "ratio"),
    higher("core.predict.accuracy_d8", "ratio"),
    higher("core.predict.accuracy_d64", "ratio"),
    lower("core.resilience.suppressed_ratio", "ratio"),
    lower("core.predict.allocs_per_kevent", "count"),
    lower("runtime_omp.decision_ns_per_region", "ns"),
    // Serve.
    lower("serve.proto.encode_req_ns", "ns"),
    lower("serve.proto.decode_req_ns", "ns"),
    lower("serve.proto.encode_resp_ns", "ns"),
    lower("serve.proto.decode_resp_ns", "ns"),
    lower("serve.proto.req_bytes", "bytes"),
    lower("serve.proto.resp_bytes", "bytes"),
    lower("serve.server.inproc_us_per_req", "us"),
    lower("serve.server.socket_overhead_us", "us"),
    lower("serve.server.rtt_p99_us", "us"),
    lower("serve.server.ctx_switches_per_req", "count"),
    lower("serve.shard.bare_observe_ns_per_event", "ns"),
    lower("serve.allocs_per_req", "count"),
    lower("serve.shard.busy_rejects", "count"),
    lower("serve.shard.degraded_responses", "count"),
    // MPI façade and communicators.
    lower("minimpi.vanilla_ns_per_call", "ns"),
    lower("runtime_mpi.record_ns_per_event", "ns"),
    lower("runtime_mpi.predict_ns_per_event", "ns"),
    lower("runtime_mpi.record_overhead_ratio", "ratio"),
    lower("runtime_mpi.elastic_counters_nonzero", "count"),
    lower("minimpi.socket.op_p99_us", "us"),
    lower("minimpi.threads.op_p50_us", "us"),
    lower("minimpi.socket_over_threads_ratio", "ratio"),
    lower("minimpi.socket.ctx_switches_per_op", "count"),
    // Analysis.
    lower("core.analyze.lint_us", "us"),
    lower("core.analyze.protocol_us", "us"),
    lower("core.analyze.race_us", "us"),
    lower("core.analyze.pattern_us", "us"),
    lower("core.analyze.predictability_us", "us"),
    lower("core.analyze.pattern_over_race_ratio", "ratio"),
    lower("core.analyze.diagnostics_total", "count"),
    lower("core.analyze.grammar_symbols_total", "count"),
    // The workload's own traced rounds: self time per round by span name
    // (zero for layers the workload never calls), and what is left over.
    lower("trace.round_ms", "ms"),
    lower("trace.untraced_round_ms", "ms"),
    lower("bench.trace_overhead_ratio", "ratio"),
    lower("trace.unexplained_ms", "ms"),
    lower("trace.self_ms.core.record.open", "ms"),
    lower("trace.self_ms.core.record.events", "ms"),
    lower("trace.self_ms.core.record.finish", "ms"),
    lower("trace.self_ms.core.trace.save", "ms"),
    lower("trace.self_ms.core.trace.load", "ms"),
    lower("trace.self_ms.core.resilience.event", "ms"),
    lower("trace.self_ms.core.resilience.query", "ms"),
    lower("trace.self_ms.serve.call", "ms"),
    lower("trace.self_ms.minimpi.run_app", "ms"),
    lower("trace.self_ms.runtime_mpi.record_app", "ms"),
    lower("trace.self_ms.runtime_mpi.predict_app", "ms"),
    lower("trace.self_ms.minimpi.socket.sendrecv", "ms"),
    lower("trace.self_ms.minimpi.socket.allreduce", "ms"),
    lower("trace.self_ms.core.analyze", "ms"),
    higher("trace.spans_recorded", "count"),
    lower("trace.spans_dropped", "count"),
    lower("op.tail_us", "us"),
    higher("op.tail_percentile", "%"),
    higher("op.samples", "count"),
    lower("proc.allocs_per_kevent", "count"),
    lower("proc.ctx_switches_per_op", "count"),
    lower("proc.write_syscalls_per_kevent", "count"),
    // The workload's counts, exact for a fixed seed.
    higher("workload.accuracy_d1", "ratio"),
    lower("workload.trace_bytes_per_kevent", "bytes"),
    lower("workload.failed_ratio", "ratio"),
    higher("workload.events_per_round", "count"),
    higher("workload.ops_per_round", "count"),
    // Harness.
    lower("bench.calib_ns", "ns"),
    higher("bench.raw_events_per_s", "events/s"),
    lower("bench.raw_op_p50_us", "us"),
    lower("bench.inputgen_s", "s"),
    lower("bench.pinned_cpu", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Layer;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit.len() <= 16, "{unit}");
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn every_span_name_has_a_self_time_metric() {
        for layer in Layer::ALL {
            if layer != Layer::Round {
                let name = format!("trace.self_ms.{}", layer.name());
                assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
            }
        }
    }
}
