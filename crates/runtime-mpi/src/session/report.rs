//! What one rank hands back at the end of a run, and the trace a
//! recording run's reports assemble into.

use pythia_core::error::{Error, Result};
use pythia_core::predict::PredictStats;
use pythia_core::resilience::ResilienceStats;
use pythia_core::trace::{ThreadTrace, TraceData};

use super::AggregationStats;
use crate::events::SharedRegistry;
use crate::probe::{CostProbe, DistanceAccuracy};

/// Elastic-world counters of one rank: what the membership/failure
/// surface of the communicator observed during the run, plus how the
/// prediction facade adapted to a world size different from the
/// reference execution. All three are zero in a fault-free,
/// size-matched run — the bench gates on exactly that.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ElasticStats {
    /// Rank failures the communicator's world detected (heartbeat
    /// timeouts, supervised aborts, connection loss).
    pub rank_failures_detected: u64,
    /// 1 if this rank is a replacement (incarnation > 0) admitted after
    /// the original died, 0 for a first spawn.
    pub ranks_replaced: u64,
    /// Verifier-validated [`TraceData::remap_ranks`] remaps this rank
    /// performed to predict from a reference trace of a different world
    /// size.
    pub remap_validations: u64,
}

/// Everything one rank accumulated during a run.
#[derive(Debug)]
pub struct RankReport {
    /// This rank's communicator-world rank.
    pub rank: usize,
    /// Total events submitted to the oracle.
    pub events: u64,
    /// Grammar rule count (record mode; 0 otherwise).
    pub rules: usize,
    /// The recorded thread trace (record mode).
    pub thread_trace: Option<ThreadTrace>,
    /// Per-distance accuracy (predict mode).
    pub accuracy: Vec<(usize, DistanceAccuracy)>,
    /// Per-distance prediction latency (predict mode).
    pub cost: CostProbe,
    /// Predictor synchronization statistics (predict mode).
    pub predict_stats: Option<PredictStats>,
    /// Send-aggregation counters (zero unless aggregation was enabled).
    pub aggregation: AggregationStats,
    /// Resilience counters of the rank's hardened oracle facade (panics
    /// caught, deadline misses, quarantine transitions, degraded time).
    pub resilience: ResilienceStats,
    /// Events a durable recorder failed to journal after a sticky IO
    /// error (0 for in-memory recording and predict mode). Non-zero means
    /// the run completed but its crash-recovery sidecars are incomplete.
    pub dropped_events: u64,
    /// Elastic-world counters (failures detected, replacements, remap
    /// validations); all zero in a fault-free, size-matched run.
    pub elastic: ElasticStats,
}

/// Assembles the per-rank recordings of a run into a [`TraceData`] (rank
/// `i` becomes thread `i`), embedding the registry the run interned into —
/// event ids are only meaningful together with that registry.
///
/// Errors with [`Error::OracleUnavailable`] if ranks are missing or a
/// report has no recording (the run was not in record mode, or the rank's
/// recording oracle panicked and was poisoned).
pub fn assemble_trace(
    mut reports: Vec<RankReport>,
    registry: &SharedRegistry,
) -> Result<TraceData> {
    reports.sort_by_key(|r| r.rank);
    for (i, r) in reports.iter().enumerate() {
        if r.rank != i {
            return Err(Error::OracleUnavailable(format!(
                "missing rank {i} in reports"
            )));
        }
    }
    let threads: Vec<ThreadTrace> = reports
        .into_iter()
        .map(|r| {
            let rank = r.rank;
            r.thread_trace
                .ok_or_else(|| Error::OracleUnavailable(format!("rank {rank} has no recording")))
        })
        .collect::<Result<_>>()?;
    Ok(TraceData::from_threads(threads, registry.snapshot()))
}
