//! The high-level per-thread oracle facade used by runtime-system
//! integrations.
//!
//! A runtime system (MPI library, OpenMP runtime, task scheduler…) holds
//! one [`Oracle`] per thread and drives it the same way in every mode:
//! submit events with [`Oracle::event`], request predictions with
//! [`Oracle::predict`] / [`Oracle::predict_delay`]. Depending on how the
//! oracle was created it records a reference trace, predicts from a loaded
//! one, or does nothing at all — so the integration code contains no mode
//! branches (mirroring how the paper's runtimes switch between
//! PYTHIA-RECORD and PYTHIA-PREDICT between executions).

use std::time::Duration;

use crate::error::Result;
use crate::event::EventId;
use crate::predict::{ObserveOutcome, Prediction, Predictor, PredictorConfig};
use crate::record::{RecordConfig, Recorder};
use crate::trace::{ThreadTrace, TraceData};

/// Which role the oracle is playing for this execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleMode {
    /// Events are ignored; predictions are uninformed. ("Vanilla")
    Off,
    /// Events build a reference trace (PYTHIA-RECORD).
    Record,
    /// Events track the position in a reference trace; predictions are
    /// available (PYTHIA-PREDICT).
    Predict,
}

/// Per-thread oracle: a mode-polymorphic wrapper around [`Recorder`] and
/// [`Predictor`].
// One oracle exists per thread for the lifetime of a run and lives where
// its owner put it; boxing the recorder to even out variant sizes would
// only add an indirection to every hot-path event submission.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Oracle {
    /// No-op oracle.
    Off,
    /// Recording oracle.
    Record(Recorder),
    /// Predicting oracle.
    Predict(Predictor),
}

impl Oracle {
    /// Creates a no-op oracle.
    pub fn off() -> Self {
        Oracle::Off
    }

    /// Creates a recording oracle.
    pub fn record(config: RecordConfig) -> Self {
        Oracle::Record(Recorder::new(config))
    }

    /// Creates a predicting oracle over thread `index` of `trace`.
    pub fn predict(trace: &TraceData, index: usize, config: PredictorConfig) -> Result<Self> {
        Ok(Oracle::Predict(Predictor::for_thread(
            trace, index, config,
        )?))
    }

    /// The current mode.
    pub fn mode(&self) -> OracleMode {
        match self {
            Oracle::Off => OracleMode::Off,
            Oracle::Record(_) => OracleMode::Record,
            Oracle::Predict(_) => OracleMode::Predict,
        }
    }

    /// Submits an event (stamped with wall-clock time when recording).
    pub fn event(&mut self, event: EventId) -> Option<ObserveOutcome> {
        match self {
            Oracle::Off => None,
            Oracle::Record(r) => {
                r.record(event);
                None
            }
            Oracle::Predict(p) => Some(p.observe(event)),
        }
    }

    /// Submits a batch of events in order, through a single mode dispatch.
    /// Returns the outcome of the **last** event (`None` for an empty batch
    /// or when not predicting) — the batch is a sequence, so the final
    /// outcome describes where the oracle stands after all of it.
    ///
    /// Runtime integrations that emit several events at one instrumentation
    /// point (e.g. an injected marker followed by the real event) should
    /// prefer this over repeated [`Oracle::event`] calls: besides the
    /// single mode dispatch, the predicting side runs
    /// [`Predictor::observe_batch`], which amortizes one grammar/index
    /// walker across every synchronized event of the batch.
    pub fn events(&mut self, events: &[EventId]) -> Option<ObserveOutcome> {
        match self {
            Oracle::Off => None,
            Oracle::Record(r) => {
                for &e in events {
                    r.record(e);
                }
                None
            }
            Oracle::Predict(p) => p.observe_batch(events),
        }
    }

    /// Submits an event with an explicit timestamp (virtual-time
    /// simulations and tests).
    pub fn event_at(&mut self, event: EventId, ns: u64) -> Option<ObserveOutcome> {
        match self {
            Oracle::Off => None,
            Oracle::Record(r) => {
                r.record_at(event, ns);
                None
            }
            Oracle::Predict(p) => Some(p.observe(event)),
        }
    }

    /// Predicts the event `distance` steps ahead ([`Prediction::default`]
    /// when not in predict mode or out of sync).
    pub fn predict_event(&self, distance: usize) -> Prediction {
        match self {
            Oracle::Predict(p) => p.predict(distance),
            _ => Prediction::default(),
        }
    }

    /// Predicts the delay until the event `distance` steps ahead.
    pub fn predict_delay(&self, distance: usize) -> Option<Duration> {
        match self {
            Oracle::Predict(p) => p.predict_delay(distance),
            _ => None,
        }
    }

    /// Access the inner predictor, if predicting.
    pub fn predictor(&self) -> Option<&Predictor> {
        match self {
            Oracle::Predict(p) => Some(p),
            _ => None,
        }
    }

    /// Access the inner recorder, if recording.
    pub fn recorder(&self) -> Option<&Recorder> {
        match self {
            Oracle::Record(r) => Some(r),
            _ => None,
        }
    }

    /// Number of events submitted while recording (0 otherwise).
    pub fn recorded_events(&self) -> u64 {
        match self {
            Oracle::Record(r) => r.event_count(),
            _ => 0,
        }
    }

    /// Finishes a recording oracle into its thread trace (`Ok(None)` for
    /// other modes). Errors when a durable recorder could not persist its
    /// journal (see [`Recorder::finish_thread`]).
    pub fn finish(self) -> Result<Option<ThreadTrace>> {
        match self {
            Oracle::Record(r) => r.finish_thread().map(Some),
            _ => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventRegistry;

    fn e(n: u32) -> EventId {
        EventId(n)
    }

    #[test]
    fn off_oracle_is_inert() {
        let mut o = Oracle::off();
        assert_eq!(o.mode(), OracleMode::Off);
        assert_eq!(o.event(e(0)), None);
        assert!(!o.predict_event(1).is_informed());
        assert_eq!(o.predict_delay(1), None);
        assert_eq!(o.recorded_events(), 0);
        assert!(o.finish().unwrap().is_none());
    }

    #[test]
    fn record_then_predict_cycle() {
        // Reference execution.
        let mut registry = EventRegistry::new();
        let a = registry.intern("enter", None);
        let b = registry.intern("exit", None);
        let mut o = Oracle::record(RecordConfig::default());
        assert_eq!(o.mode(), OracleMode::Record);
        let mut t = 0;
        for _ in 0..30 {
            t += 10;
            o.event_at(a, t);
            t += 500;
            o.event_at(b, t);
        }
        assert_eq!(o.recorded_events(), 60);
        let thread = o.finish().unwrap().unwrap();
        let trace = TraceData::from_threads(vec![thread], registry);

        // Subsequent execution.
        let mut o = Oracle::predict(&trace, 0, PredictorConfig::default()).unwrap();
        assert_eq!(o.mode(), OracleMode::Predict);
        o.event(a);
        let pred = o.predict_event(1);
        assert_eq!(pred.most_likely(), Some(b));
        // After `a`, the next event (`b`) arrives ~500ns later.
        let d = o.predict_delay(1).unwrap();
        assert!(
            d >= Duration::from_nanos(400) && d <= Duration::from_nanos(600),
            "{d:?}"
        );
    }

    #[test]
    fn batched_events_match_sequential_submission() {
        let mut registry = EventRegistry::new();
        let a = registry.intern("a", None);
        let b = registry.intern("b", None);
        let c = registry.intern("c", None);
        let mut rec = Oracle::record(RecordConfig::default());
        for _ in 0..20 {
            rec.events(&[a, b, c]);
        }
        assert_eq!(rec.recorded_events(), 60);
        let trace = TraceData::from_threads(vec![rec.finish().unwrap().unwrap()], registry);

        let mut one = Oracle::predict(&trace, 0, PredictorConfig::default()).unwrap();
        let mut batched = Oracle::predict(&trace, 0, PredictorConfig::default()).unwrap();
        let o1 = one.event(a);
        let o2 = one.event(b);
        assert_eq!(batched.events(&[a, b]), o2);
        assert_ne!(o1, None);
        assert_eq!(
            batched.predict_event(1).most_likely(),
            one.predict_event(1).most_likely()
        );
        assert_eq!(batched.events(&[]), None);
        assert_eq!(Oracle::off().events(&[a, b]), None);
    }

    #[test]
    fn predict_missing_thread_errors() {
        let trace = TraceData::from_threads(vec![], EventRegistry::new());
        assert!(Oracle::predict(&trace, 0, PredictorConfig::default()).is_err());
    }
}
