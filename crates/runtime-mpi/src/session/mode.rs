//! How a run uses the oracle: vanilla, record, or predict.

use std::sync::Arc;

use pythia_core::resilience::ResilienceConfig;
use pythia_core::trace::TraceData;

/// How the runtime system uses PYTHIA for this execution.
///
/// Constructed once per execution, so the size skew from `Predict`'s
/// inline [`ResilienceConfig`] (which carries the full fault plan) is
/// irrelevant — boxing it would only tax every construction site.
#[allow(clippy::large_enum_variant)]
#[derive(Clone)]
pub enum MpiMode {
    /// No oracle (baseline "Vanilla" of the paper's tables).
    Vanilla,
    /// Reference execution: record events (PYTHIA-RECORD).
    Record {
        /// Log per-event timestamps (costs memory on huge traces).
        timestamps: bool,
    },
    /// Subsequent execution: load the reference trace and predict
    /// (PYTHIA-PREDICT). Predictions are requested at blocking calls for
    /// every distance in `distances` and scored by the accuracy probe.
    Predict {
        /// The reference trace (thread `i` = rank `i`).
        trace: Arc<TraceData>,
        /// Prediction distances to request and score.
        distances: Vec<usize>,
        /// Map rank `r` to trace thread `r % thread_count` instead of
        /// requiring equal counts — the paper's stated future work
        /// ("predict accurately when the application runs with different
        /// configuration (number of threads, number of processes)").
        /// Symmetric ranks of these kernels behave alike, so the modulo
        /// mapping is a reasonable first approximation.
        map_ranks: bool,
        /// Hardening knobs for the facade every rank's oracle is wrapped in
        /// ([`HardenedOracle`](pythia_core::resilience::HardenedOracle):
        /// time budget, watchdog, fault injection).
        resilience: ResilienceConfig,
    },
}

impl MpiMode {
    /// Record mode with timestamps enabled.
    pub fn record() -> Self {
        MpiMode::Record { timestamps: true }
    }

    /// Predict mode scoring only distance 1.
    pub fn predict(trace: Arc<TraceData>) -> Self {
        MpiMode::Predict {
            trace,
            distances: vec![1],
            map_ranks: false,
            resilience: ResilienceConfig::default(),
        }
    }

    /// Predict mode scoring a set of distances (Fig. 8 uses 1..=128).
    pub fn predict_distances(trace: Arc<TraceData>, distances: Vec<usize>) -> Self {
        MpiMode::Predict {
            trace,
            distances,
            map_ranks: false,
            resilience: ResilienceConfig::default(),
        }
    }

    /// Predict mode tolerating a different rank count than the reference
    /// execution (rank `r` follows trace thread `r mod threads`).
    pub fn predict_mapped(trace: Arc<TraceData>, distances: Vec<usize>) -> Self {
        MpiMode::Predict {
            trace,
            distances,
            map_ranks: true,
            resilience: ResilienceConfig::default(),
        }
    }

    /// Predict mode with explicit hardening knobs (time budget, watchdog
    /// thresholds, fault injection) for the per-rank oracle facade.
    pub fn predict_resilient(
        trace: Arc<TraceData>,
        distances: Vec<usize>,
        resilience: ResilienceConfig,
    ) -> Self {
        MpiMode::Predict {
            trace,
            distances,
            map_ranks: false,
            resilience,
        }
    }
}
