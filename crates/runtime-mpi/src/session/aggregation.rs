//! Prediction-driven send aggregation — the optimization the paper names
//! as the MPI runtime's motivation (§III-B: "aggregating multiple
//! successive MPI send messages"). It lives in [`PythiaComm`]'s `deposit`:
//! when the oracle predicts that the next event is another send to the
//! same peer, the message is buffered and shipped together with the
//! following ones as a single wire transfer.
//!
//! A held batch belongs to the communicator it was buffered on: only a
//! send on that communicator, to the same peer with the same tag, extends
//! it, and it always ships through that communicator — whichever of the
//! rank's handles triggers the flush.
//!
//! [`PythiaComm`]: super::PythiaComm

use std::sync::Arc;

use pythia_minimpi::{Communicator, Message, MpiCall};

use super::RankState;
use crate::events::SharedRegistry;

/// Configuration of prediction-driven send aggregation.
#[derive(Debug, Clone, Copy)]
pub struct AggregationConfig {
    /// Minimum predicted probability of "another send to the same peer
    /// follows" required to hold a message back.
    pub min_probability: f64,
    /// Maximum messages per aggregated transfer.
    pub max_batch: usize,
}

impl Default for AggregationConfig {
    fn default() -> Self {
        AggregationConfig {
            min_probability: 0.9,
            max_batch: 16,
        }
    }
}

/// Counters of the aggregation layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AggregationStats {
    /// Messages the application sent while aggregation could act.
    pub logical_sends: u64,
    /// Sends that were buffered based on a prediction.
    pub held_back: u64,
    /// Aggregated transfers flushed (each carried >= 2 messages).
    pub batches: u64,
}

/// Messages held for one peer of one communicator.
struct PendingBatch<C> {
    comm: Arc<C>,
    dest: usize,
    msgs: Vec<Message>,
}

/// A rank's aggregation layer: its knobs, counters and held batch.
pub(super) struct AggState<C> {
    config: AggregationConfig,
    pub(super) stats: AggregationStats,
    pending: Option<PendingBatch<C>>,
}

impl<C: Communicator> AggState<C> {
    pub(super) fn new(config: AggregationConfig) -> Self {
        AggState {
            config,
            stats: AggregationStats::default(),
            pending: None,
        }
    }

    /// Ships the held batch, if any, through the communicator it was
    /// buffered on.
    pub(super) fn flush(&mut self) {
        if let Some(p) = self.pending.take() {
            if p.msgs.len() >= 2 {
                self.stats.batches += 1;
            }
            p.comm.deposit(p.dest, p.msgs);
        }
    }
}

impl<C: Communicator> RankState<C> {
    /// The aggregation decision for `msgs` about to be deposited to `dest`
    /// on `comm`: holds them back and returns `None`, or hands them back
    /// to be shipped now. Runs after the send's event was submitted, so
    /// the prediction is for the event that follows it.
    pub(super) fn hold(
        &mut self,
        registry: &SharedRegistry,
        comm: &Arc<C>,
        dest: usize,
        mut msgs: Vec<Message>,
    ) -> Option<Vec<Message>> {
        if self.oracle.is_off() || self.aggregation.is_none() || self.oracle.predictor().is_none() {
            return Some(msgs);
        }
        let Some(tag) = msgs.first().map(|m| m.tag) else {
            return Some(msgs);
        };
        // "Another send to this peer follows" — blocking or nonblocking.
        // The prediction is computed before the aggregation state is
        // borrowed (the hardened facade's watchdog mutates on every query);
        // a degraded oracle answers uninformed, so the message ships
        // immediately — aggregation falls back to no-prefetch behavior.
        let send_id = self.cache.resolve(registry, MpiCall::Send(dest));
        let isend_id = self.cache.resolve(registry, MpiCall::Isend(dest));
        let prediction = self.oracle.predict_event(1);
        let Some(agg) = self.aggregation.as_mut() else {
            return Some(msgs);
        };
        // A batch for another communicator, peer or tag goes out first, to
        // preserve per-destination ordering.
        if agg
            .pending
            .as_ref()
            .is_some_and(|p| !Arc::ptr_eq(&p.comm, comm) || p.dest != dest || p.msgs[0].tag != tag)
        {
            agg.flush();
        }
        agg.stats.logical_sends += msgs.len() as u64;
        let room = agg
            .pending
            .as_ref()
            .is_none_or(|p| p.msgs.len() < agg.config.max_batch);
        let more_coming = matches!(
            prediction.most_likely(),
            Some(m) if m == send_id || m == isend_id
        ) && prediction.probability(send_id) + prediction.probability(isend_id)
            >= agg.config.min_probability;
        match agg.pending.as_mut() {
            Some(p) => {
                agg.stats.held_back += msgs.len() as u64;
                p.msgs.append(&mut msgs);
                if !(more_coming && room) {
                    agg.flush();
                }
                None
            }
            None if more_coming => {
                agg.stats.held_back += msgs.len() as u64;
                agg.pending = Some(PendingBatch {
                    comm: Arc::clone(comm),
                    dest,
                    msgs,
                });
                None
            }
            None => Some(msgs),
        }
    }
}
