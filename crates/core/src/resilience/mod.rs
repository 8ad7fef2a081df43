//! Resilience layer: the [`HardenedOracle`] facade that keeps a wrong,
//! slow, or crashing oracle from ever being worse than no oracle.
//!
//! PYTHIA is advisory: every host runtime has a default decision it falls
//! back to when the oracle abstains (maximum team size for OpenMP,
//! no-prefetch for MPI). This module turns every oracle failure mode into
//! that abstention:
//!
//! * **Panics** — every query runs under `catch_unwind`; after any panic
//!   the facade is *poisoned* and bypasses the oracle permanently.
//! * **Slow queries** — an optional per-query time budget is threaded into
//!   both query walks: the distance walk behind
//!   [`crate::predict::Predictor::predict`] reads the clock on its first
//!   node and then every 64, the delay chain behind
//!   [`crate::predict::Predictor::predict_delay_ns`] before every step. A
//!   query that cannot finish in time answers the default instead of
//!   stalling the host.
//! * **Sustained misprediction** — an accuracy watchdog scores each
//!   prediction, at any distance `x`, against the event the host observes
//!   `x` events later and feeds a [`breaker::CircuitBreaker`]: too many
//!   wrong answers (or repeated deadline misses) quarantine the oracle,
//!   with exponential-backoff half-open probing to re-enable it if
//!   accuracy recovers.
//!
//! [`faults`] adds a deterministic fault-injection harness so every one of
//! these paths is exercised by the `chaos` test suite (and by CI through
//! the `PYTHIA_CHAOS` environment variable).

pub mod breaker;
pub mod faults;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use faults::{FaultInjector, FaultPlan, WireFault, WireFaultInjector};

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{Error, Result};
use crate::event::EventId;
use crate::oracle::{Oracle, OracleMode};
use crate::predict::{ObserveOutcome, PredictStats, Prediction, Predictor, PredictorConfig};
use crate::record::Recorder;
use crate::trace::{ThreadTrace, TraceData};

/// Tuning knobs of the [`HardenedOracle`].
#[derive(Debug, Clone, Default)]
pub struct ResilienceConfig {
    /// Per-query wall-clock budget for predict queries. `None` (the
    /// default) disables the deadline — the budget costs two clock reads
    /// per query, which hosts issuing sub-microsecond queries may not want
    /// to pay.
    pub time_budget: Option<Duration>,
    /// Accuracy-watchdog thresholds and backoff.
    pub breaker: BreakerConfig,
    /// Faults to inject. `None` consults the `PYTHIA_CHAOS` environment
    /// variable ([`FaultPlan::from_env`]); `Some(FaultPlan::none())` pins
    /// the facade fault-free regardless of the environment.
    pub faults: Option<FaultPlan>,
}

/// Counters kept by the [`HardenedOracle`] (all zero on a healthy facade).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Panics caught and isolated (each one poisons the facade).
    pub panics_caught: u64,
    /// Predict queries that blew their time budget.
    pub deadline_misses: u64,
    /// Times the oracle was quarantined (breaker trips plus poisoning).
    pub quarantine_transitions: u64,
    /// Nanoseconds spent degraded (quarantined, probing, or poisoned).
    pub degraded_ns: u64,
    /// Queries answered with the host default because the oracle was
    /// degraded.
    pub suppressed: u64,
    /// Predictions scored by the accuracy watchdog.
    pub scored: u64,
    /// Scored predictions that turned out wrong.
    pub mispredicted: u64,
    /// Whether the facade is permanently bypassed after a panic.
    pub poisoned: bool,
}

/// Summary of the facade's current condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleHealth {
    /// Advice flows to the host.
    Healthy,
    /// Circuit breaker open: queries answer the host default.
    Quarantined,
    /// Half-open: predictions are computed and scored but withheld.
    Probing,
    /// A panic was caught; the oracle is permanently bypassed.
    Poisoned,
}

/// Outstanding predictions kept before the oldest is discarded (bounds
/// memory if the host stops submitting events).
const MAX_PENDING: usize = 1024;

/// Crash-isolating, self-distrusting wrapper around an [`Oracle`].
///
/// Drop-in for the runtime integrations: the submission and query surface
/// mirrors [`Oracle`]'s (query methods take `&mut self` because the
/// watchdog records every prediction it hands out). Any failure — panic,
/// blown deadline, sustained misprediction — degrades to the uninformed
/// answer ([`Prediction::default`] / `None`), never to a host-visible
/// crash.
#[derive(Debug)]
pub struct HardenedOracle {
    inner: Oracle,
    /// Copy of the inner oracle's mode (fixed at construction): the hot
    /// path branches on it several times per event.
    mode: OracleMode,
    time_budget: Option<Duration>,
    breaker: CircuitBreaker,
    injector: FaultInjector,
    /// Whether any per-call hook is armed: a time budget, or a fault this
    /// facade injects into events or queries. Fixed at construction; a
    /// fault-free facade never reads the injector or the clock per call.
    hooked: bool,
    /// Outstanding `(target, predicted)`: one FIFO per distinct distance,
    /// largest first. A FIFO fills event by event, so it is sorted by
    /// target, and of equal targets the larger distance's came first: the
    /// FIFOs in order hold a target's predictions in registration order.
    pending: Vec<(usize, VecDeque<(u64, EventId)>)>,
    /// How many predictions `pending` holds.
    outstanding: usize,
    /// Events submitted by the host (ground truth for the watchdog; fault
    /// injection happens downstream of this counter).
    observed: u64,
    /// Set permanently once any panic is caught.
    poisoned: bool,
    stats: ResilienceStats,
    /// When the facade last became degraded (for `degraded_ns`).
    degraded_since: Option<Instant>,
    /// Reused buffer for fault-transformed submissions.
    scratch: Vec<EventId>,
}

impl HardenedOracle {
    /// Wraps an existing oracle. Without an explicit
    /// [`ResilienceConfig::faults`] plan, the `PYTHIA_CHAOS` environment
    /// variable is consulted.
    pub fn new(inner: Oracle, config: ResilienceConfig) -> Self {
        let plan = config
            .faults
            .clone()
            .or_else(FaultPlan::from_env)
            .unwrap_or_default();
        let injector = FaultInjector::new(plan);
        let plan = injector.plan();
        let hooked = config.time_budget.is_some()
            || !injector.is_identity()
            || plan.panic_on_predict
            || plan.panic_on_observe_after.is_some()
            || plan.slow_predict.is_some();
        HardenedOracle {
            mode: inner.mode(),
            inner,
            time_budget: config.time_budget,
            breaker: CircuitBreaker::new(config.breaker),
            injector,
            hooked,
            pending: Vec::new(),
            outstanding: 0,
            observed: 0,
            poisoned: false,
            stats: ResilienceStats::default(),
            degraded_since: None,
            scratch: Vec::new(),
        }
    }

    /// A facade around a no-op oracle (vanilla mode).
    pub fn off(config: ResilienceConfig) -> Self {
        Self::new(Oracle::off(), config)
    }

    /// A predicting facade over thread `index` of `trace`, with predictor
    /// construction (including the grammar-index build) itself guarded:
    /// a hostile grammar that panics the build yields
    /// [`Error::OracleUnavailable`], not a host-visible panic.
    pub fn try_predict(
        trace: &TraceData,
        index: usize,
        pconfig: PredictorConfig,
        config: ResilienceConfig,
    ) -> Result<Self> {
        let thread = trace.thread(index)?.clone();
        Self::try_predict_thread(thread, pconfig, config)
    }

    /// The body of [`HardenedOracle::try_predict`]. A [`TraceData`] builds
    /// every thread's index when it is assembled, so a grammar that panics
    /// the build reaches this guard only as a bare thread.
    fn try_predict_thread(
        thread: Arc<ThreadTrace>,
        pconfig: PredictorConfig,
        config: ResilienceConfig,
    ) -> Result<Self> {
        match catch_unwind(AssertUnwindSafe(|| {
            Predictor::try_from_thread_trace(thread, pconfig)
        })) {
            Ok(Ok(p)) => Ok(Self::new(Oracle::Predict(p), config)),
            Ok(Err(e)) => Err(e),
            Err(_) => Err(Error::OracleUnavailable(
                "predictor construction panicked (hostile grammar)".into(),
            )),
        }
    }

    /// Infallible construction for hosts that must start regardless: any
    /// error or panic yields a *poisoned* facade that answers every query
    /// with the host default (and says so in its stats).
    pub fn predict_or_bypass(
        trace: &TraceData,
        index: usize,
        pconfig: PredictorConfig,
        config: ResilienceConfig,
    ) -> Self {
        match trace.thread(index) {
            Ok(thread) => Self::predict_thread_or_bypass(thread.clone(), pconfig, config),
            Err(e) => Self::bypassed_after(e, config),
        }
    }

    /// The body of [`HardenedOracle::predict_or_bypass`].
    fn predict_thread_or_bypass(
        thread: Arc<ThreadTrace>,
        pconfig: PredictorConfig,
        config: ResilienceConfig,
    ) -> Self {
        match Self::try_predict_thread(thread, pconfig, config.clone()) {
            Ok(h) => h,
            Err(e) => Self::bypassed_after(e, config),
        }
    }

    fn bypassed_after(cause: Error, config: ResilienceConfig) -> Self {
        let was_panic = matches!(cause, Error::OracleUnavailable(_));
        let mut h = Self::new(Oracle::off(), config);
        h.poisoned = true;
        if was_panic {
            h.stats.panics_caught += 1;
        }
        h.degraded_since = Some(Instant::now());
        h
    }

    /// The inner oracle's mode.
    #[inline]
    pub fn mode(&self) -> OracleMode {
        self.mode
    }

    /// Whether this facade wraps a no-op oracle (hosts skip instrumentation
    /// entirely then).
    #[inline]
    pub fn is_off(&self) -> bool {
        matches!(self.mode, OracleMode::Off)
    }

    /// Current condition.
    pub fn health(&self) -> OracleHealth {
        if self.poisoned {
            OracleHealth::Poisoned
        } else {
            match self.breaker.state() {
                BreakerState::Closed => OracleHealth::Healthy,
                BreakerState::Open => OracleHealth::Quarantined,
                BreakerState::HalfOpen => OracleHealth::Probing,
            }
        }
    }

    /// Resilience counters (with `degraded_ns` including the current
    /// degraded period, if one is running).
    pub fn resilience_stats(&self) -> ResilienceStats {
        let mut s = self.stats;
        s.quarantine_transitions = self.breaker.transitions() + u64::from(self.poisoned);
        if let Some(t0) = self.degraded_since {
            s.degraded_ns = s.degraded_ns.saturating_add(t0.elapsed().as_nanos() as u64);
        }
        s.poisoned = self.poisoned;
        s
    }

    /// The inner predictor's statistics with the facade's counters merged
    /// into the resilience fields (`None` when not predicting).
    pub fn predict_stats(&self) -> Option<PredictStats> {
        self.inner.predictor().map(|p| {
            let mut s = p.stats();
            let r = self.resilience_stats();
            s.panics_caught = r.panics_caught;
            s.deadline_misses = r.deadline_misses;
            s.quarantine_transitions = r.quarantine_transitions;
            s.degraded_ns = r.degraded_ns;
            s
        })
    }

    /// Submits one event. Mirrors [`Oracle::event`], with fault injection,
    /// panic isolation, and watchdog scoring applied.
    #[inline]
    pub fn event(&mut self, event: EventId) -> Option<ObserveOutcome> {
        self.one_event(event, None)
    }

    /// Submits a batch of events; returns the last event's outcome
    /// (mirrors [`Oracle::events`]).
    pub fn events(&mut self, events: &[EventId]) -> Option<ObserveOutcome> {
        let mut last = None;
        for &e in events {
            last = self.one_event(e, None);
        }
        last
    }

    /// Submits an event with an explicit timestamp (mirrors
    /// [`Oracle::event_at`]).
    #[inline]
    pub fn event_at(&mut self, event: EventId, ns: u64) -> Option<ObserveOutcome> {
        self.one_event(event, Some(ns))
    }

    #[inline]
    fn one_event(&mut self, event: EventId, ns: Option<u64>) -> Option<ObserveOutcome> {
        if self.is_off() {
            return None;
        }
        self.observed += 1;
        if self.poisoned {
            return None;
        }
        if self.mode == OracleMode::Predict {
            // Score outstanding predictions against the *host* event: fault
            // injection corrupts what the oracle sees, never the ground
            // truth, so a lossy channel shows up as mispredictions.
            let advised = self.breaker.advice_allowed();
            self.resolve_pending(event, self.observed);
            self.breaker.on_event(self.observed);
            if self.breaker.advice_allowed() != advised {
                self.sync_degraded_clock();
            }
        }

        let mut delivered = std::slice::from_ref(&event);
        let mut panic_now = false;
        if self.hooked {
            if self.injector.is_identity() {
                self.injector.submit_identity();
            } else {
                self.scratch.clear();
                self.injector.transform(event, &mut self.scratch);
                delivered = &self.scratch;
            }
            panic_now = self.injector.observe_panics();
        }
        let inner = &mut self.inner;
        let result = catch_unwind(AssertUnwindSafe(|| {
            if panic_now {
                panic!("injected observe fault");
            }
            let mut last = None;
            for &e in delivered {
                last = match ns {
                    Some(t) => inner.event_at(e, t),
                    None => inner.event(e),
                };
            }
            last
        }));
        result.unwrap_or_else(|_| {
            self.poison();
            None
        })
    }

    /// Predicts the event `distance` steps ahead (mirrors
    /// [`Oracle::predict_event`]); answers [`Prediction::default`] whenever
    /// the facade is degraded or the query fails in any way.
    #[inline]
    pub fn predict_event(&mut self, distance: usize) -> Prediction {
        let Some(pred) = self.guarded_query(|p, deadline| p.predict_inner(distance, deadline))
        else {
            return Prediction::default();
        };
        if let Some(next) = pred.most_likely() {
            self.register(distance, next);
        }
        self.advise(pred).unwrap_or_default()
    }

    /// Predicts the delay until the event `distance` steps ahead (mirrors
    /// [`Oracle::predict_delay`]); `None` whenever degraded or failed.
    pub fn predict_delay(&mut self, distance: usize) -> Option<Duration> {
        let ns = self.guarded_query(|p, deadline| p.predict_delay_ns_inner(distance, deadline))?;
        let ns = self.advise(ns)??;
        Some(Duration::from_nanos(ns.max(0.0) as u64))
    }

    /// The guard both oracle queries run under. A degraded facade answers
    /// `None` without computing (counted as suppressed). Otherwise `query`
    /// runs under `catch_unwind` (on a hooked facade after the injected
    /// predict faults, with the per-query deadline): a panic poisons the
    /// facade, a blown deadline counts as a miss and a hard failure for
    /// the breaker, and every failure answers `None`.
    fn guarded_query<T>(
        &mut self,
        query: impl FnOnce(&Predictor, Option<Instant>) -> Result<T>,
    ) -> Option<T> {
        let predictor = self.inner.predictor()?;
        if self.poisoned || !self.breaker.computes() {
            self.stats.suppressed += 1;
            return None;
        }
        let (deadline, panic_now, slow) = if self.hooked {
            let plan = self.injector.plan();
            let deadline = self.time_budget.map(|b| Instant::now() + b);
            (deadline, plan.panic_on_predict, plan.slow_predict)
        } else {
            (None, false, None)
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            if panic_now {
                panic!("injected predict fault");
            }
            if let Some(d) = slow {
                spin(d);
            }
            query(predictor, deadline)
        }));
        match result {
            Ok(Ok(answer)) => {
                self.breaker.on_query_ok();
                Some(answer)
            }
            Ok(Err(Error::Degraded(_))) => {
                self.stats.deadline_misses += 1;
                self.breaker.on_hard_failure(self.observed);
                self.sync_degraded_clock();
                None
            }
            Ok(Err(_)) => None,
            Err(_) => {
                self.poison();
                None
            }
        }
    }

    /// Hands a computed answer to the host while the breaker is closed. A
    /// half-open probe's answer is scored, but the host gets the default
    /// until accuracy is proven again.
    fn advise<T>(&mut self, answer: T) -> Option<T> {
        if self.breaker.advice_allowed() {
            Some(answer)
        } else {
            self.stats.suppressed += 1;
            None
        }
    }

    /// Access the inner predictor, if predicting.
    pub fn predictor(&self) -> Option<&Predictor> {
        self.inner.predictor()
    }

    /// Access the inner recorder, if recording.
    pub fn recorder(&self) -> Option<&Recorder> {
        self.inner.recorder()
    }

    /// Number of events recorded so far (0 unless recording).
    pub fn recorded_events(&self) -> u64 {
        self.inner.recorded_events()
    }

    /// Finishes a recording facade into its thread trace. `Ok(None)` for
    /// other modes — and for a poisoned facade, whose recording cannot be
    /// trusted past the panic point. A panic while finishing is likewise
    /// absorbed into `Ok(None)`; a durable recorder's journal/fsync error
    /// ([`crate::record::Recorder::finish_thread`]) propagates as `Err` so
    /// hosts know the sidecar is incomplete.
    pub fn finish(self) -> Result<Option<ThreadTrace>> {
        if self.poisoned {
            return Ok(None);
        }
        let inner = self.inner;
        catch_unwind(AssertUnwindSafe(move || inner.finish())).unwrap_or(Ok(None))
    }

    #[cold]
    #[inline(never)]
    fn poison(&mut self) {
        self.poisoned = true;
        self.stats.panics_caught += 1;
        self.pending.clear();
        self.outstanding = 0;
        self.sync_degraded_clock();
    }

    /// Records a handed-out (or shadow) prediction for later scoring; past
    /// `MAX_PENDING` the oldest target (of those, the earliest registered)
    /// gives way.
    #[inline]
    fn register(&mut self, distance: usize, predicted: EventId) {
        let lanes = &mut self.pending;
        let at = lanes.iter().filter(|l| l.0 > distance).count();
        if lanes.get(at).is_none_or(|l| l.0 != distance) {
            lanes.insert(at, (distance, VecDeque::new()));
        }
        lanes[at]
            .1
            .push_back((self.observed + distance as u64, predicted));
        self.outstanding += 1;
        if self.outstanding > MAX_PENDING {
            // Of equal targets the first FIFO's was registered first, and
            // `min_by_key` keeps the first of equal keys.
            let fronts = lanes
                .iter_mut()
                .filter_map(|l| Some((l.1.front()?.0, &mut l.1)));
            if let Some((_, oldest)) = fronts.min_by_key(|(target, _)| *target) {
                oldest.pop_front();
                self.outstanding -= 1;
            }
        }
    }

    /// Scores every outstanding prediction whose target is this event, in
    /// registration order.
    #[inline]
    fn resolve_pending(&mut self, event: EventId, now: u64) {
        for (_, fifo) in &mut self.pending {
            while let Some(&(target, predicted)) = fifo.front().filter(|p| p.0 <= now) {
                fifo.pop_front();
                self.outstanding -= 1;
                if target == now {
                    let correct = predicted == event;
                    self.stats.scored += 1;
                    self.stats.mispredicted += u64::from(!correct);
                    self.breaker.on_scored(correct, now);
                }
            }
        }
    }

    /// Starts/stops the degraded-time clock when health flips. Called only
    /// where health can change: on poisoning, on a blown deadline (a hard
    /// failure for the breaker), and when scoring flips the breaker.
    #[cold]
    #[inline(never)]
    fn sync_degraded_clock(&mut self) {
        let degraded = self.poisoned || self.breaker.state() != BreakerState::Closed;
        match (self.degraded_since, degraded) {
            (None, true) => self.degraded_since = Some(Instant::now()),
            (Some(t0), false) => {
                self.stats.degraded_ns = self
                    .stats
                    .degraded_ns
                    .saturating_add(t0.elapsed().as_nanos() as u64);
                self.degraded_since = None;
            }
            _ => {}
        }
    }
}

/// Busy-waits for `d` (fault injection; sleeping would let the scheduler
/// hide the stall the fault is supposed to model).
fn spin(d: Duration) {
    let t0 = Instant::now();
    while t0.elapsed() < d {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventRegistry;
    use crate::record::{RecordConfig, Recorder};

    fn e(n: u32) -> EventId {
        EventId(n)
    }

    /// One outstanding prediction of the naive watchdog model. Ordered by
    /// target, equal targets by registration.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct PendingScore {
        /// 1-based index (in observed events) of the event this predicted.
        target: u64,
        /// Position among the predictions registered so far.
        registered: u64,
        /// The predicted event id.
        predicted: EventId,
    }

    /// Records `seq` with uniform 100ns spacing.
    fn trace_of(seq: &[u32]) -> TraceData {
        let mut rec = Recorder::new(RecordConfig::default());
        let mut t = 0u64;
        for &s in seq {
            t += 100;
            rec.record_at(e(s), t);
        }
        rec.finish(&EventRegistry::new()).unwrap()
    }

    fn hermetic() -> ResilienceConfig {
        ResilienceConfig {
            faults: Some(FaultPlan::none()),
            ..ResilienceConfig::default()
        }
    }

    #[test]
    fn happy_path_is_transparent() {
        let seq: Vec<u32> = (0..50).flat_map(|_| [0, 1, 2]).collect();
        let trace = trace_of(&seq);
        let mut bare = Oracle::predict(&trace, 0, PredictorConfig::default()).unwrap();
        let mut hard =
            HardenedOracle::try_predict(&trace, 0, PredictorConfig::default(), hermetic()).unwrap();
        for &s in &seq[..20] {
            assert_eq!(hard.event(e(s)), bare.event(e(s)));
            assert_eq!(
                hard.predict_event(1).most_likely(),
                bare.predict_event(1).most_likely()
            );
            assert_eq!(hard.predict_delay(1), bare.predict_delay(1));
        }
        assert_eq!(hard.health(), OracleHealth::Healthy);
        let r = hard.resilience_stats();
        assert_eq!(r.panics_caught, 0);
        assert_eq!(r.deadline_misses, 0);
        assert_eq!(r.quarantine_transitions, 0);
        assert_eq!(r.suppressed, 0);
        assert!(r.scored > 0);
        assert_eq!(r.mispredicted, 0);
        let ps = hard.predict_stats().unwrap();
        assert_eq!(ps.observed, 20);
        assert_eq!(ps.panics_caught, 0);
    }

    #[test]
    fn injected_predict_panic_poisons_once() {
        let seq: Vec<u32> = (0..30).flat_map(|_| [0, 1]).collect();
        let trace = trace_of(&seq);
        let config = ResilienceConfig {
            faults: Some(FaultPlan {
                panic_on_predict: true,
                ..FaultPlan::none()
            }),
            ..ResilienceConfig::default()
        };
        let mut hard =
            HardenedOracle::try_predict(&trace, 0, PredictorConfig::default(), config).unwrap();
        hard.event(e(0));
        // First query panics inside the guard; this and every later query
        // answer the default.
        let silent_guard = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let p = hard.predict_event(1);
        std::panic::set_hook(silent_guard);
        assert!(!p.is_informed());
        assert_eq!(hard.health(), OracleHealth::Poisoned);
        assert!(!hard.predict_event(1).is_informed());
        assert_eq!(hard.predict_delay(1), None);
        assert_eq!(hard.event(e(1)), None);
        let r = hard.resilience_stats();
        assert_eq!(r.panics_caught, 1);
        assert_eq!(r.quarantine_transitions, 1);
        assert!(r.suppressed >= 2);
        assert!(r.poisoned);
        assert!(r.degraded_ns > 0);
        // Merged stats stay readable after the panic.
        let ps = hard.predict_stats().unwrap();
        assert_eq!(ps.panics_caught, 1);
        assert_eq!(ps.quarantine_transitions, 1);
    }

    #[test]
    fn injected_panic_through_predict_delay_poisons_once() {
        let seq: Vec<u32> = (0..30).flat_map(|_| [0, 1]).collect();
        let trace = trace_of(&seq);
        let config = ResilienceConfig {
            faults: Some(FaultPlan {
                panic_on_predict: true,
                ..FaultPlan::none()
            }),
            ..ResilienceConfig::default()
        };
        let mut hard =
            HardenedOracle::try_predict(&trace, 0, PredictorConfig::default(), config).unwrap();
        hard.event(e(0));
        let silent_guard = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let delay = hard.predict_delay(1);
        std::panic::set_hook(silent_guard);
        assert_eq!(delay, None);
        assert_eq!(hard.health(), OracleHealth::Poisoned);
        // Every later query of either kind is answered without computing.
        for _ in 0..3 {
            assert!(!hard.predict_event(1).is_informed());
            assert_eq!(hard.predict_delay(1), None);
        }
        let r = hard.resilience_stats();
        assert_eq!(r.panics_caught, 1);
        assert_eq!(r.quarantine_transitions, 1);
        assert_eq!(r.suppressed, 6);
        assert!(r.poisoned);
    }

    #[test]
    fn zero_budget_delay_queries_count_deadline_misses_and_quarantine() {
        // Timestamped, so the delay walk reaches its first deadline probe.
        let seq: Vec<u32> = (0..50).flat_map(|_| [0, 1]).collect();
        let trace = trace_of(&seq);
        assert!(!trace.thread(0).unwrap().timing.is_empty());
        let config = ResilienceConfig {
            time_budget: Some(Duration::ZERO),
            breaker: BreakerConfig {
                failure_threshold: 3,
                ..BreakerConfig::default()
            },
            faults: Some(FaultPlan::none()),
        };
        let mut hard =
            HardenedOracle::try_predict(&trace, 0, PredictorConfig::default(), config).unwrap();
        hard.event(e(0));
        for _ in 0..3 {
            assert_eq!(hard.predict_delay(1), None);
        }
        let r = hard.resilience_stats();
        assert_eq!(r.deadline_misses, 3);
        assert_eq!(hard.health(), OracleHealth::Quarantined);
        assert_eq!(r.quarantine_transitions, 1);
        // While quarantined, queries are suppressed without computing.
        assert_eq!(hard.predict_delay(1), None);
        let r = hard.resilience_stats();
        assert_eq!((r.suppressed, r.deadline_misses), (1, 3));
    }

    #[test]
    fn observe_panic_is_isolated() {
        let seq: Vec<u32> = (0..30).flat_map(|_| [0, 1]).collect();
        let trace = trace_of(&seq);
        let config = ResilienceConfig {
            faults: Some(FaultPlan {
                panic_on_observe_after: Some(3),
                ..FaultPlan::none()
            }),
            ..ResilienceConfig::default()
        };
        let mut hard =
            HardenedOracle::try_predict(&trace, 0, PredictorConfig::default(), config).unwrap();
        hard.event(e(0));
        hard.event(e(1));
        let silent_guard = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = hard.event(e(0));
        std::panic::set_hook(silent_guard);
        assert_eq!(out, None);
        assert_eq!(hard.health(), OracleHealth::Poisoned);
        assert_eq!(hard.resilience_stats().panics_caught, 1);
    }

    #[test]
    fn zero_budget_counts_deadline_misses_and_quarantines() {
        let seq: Vec<u32> = (0..50).flat_map(|_| [0, 1]).collect();
        let trace = trace_of(&seq);
        let config = ResilienceConfig {
            time_budget: Some(Duration::ZERO),
            breaker: BreakerConfig {
                failure_threshold: 3,
                ..BreakerConfig::default()
            },
            faults: Some(FaultPlan::none()),
        };
        let mut hard =
            HardenedOracle::try_predict(&trace, 0, PredictorConfig::default(), config).unwrap();
        hard.event(e(0));
        for _ in 0..3 {
            assert!(!hard.predict_event(1).is_informed());
        }
        let r = hard.resilience_stats();
        assert_eq!(r.deadline_misses, 3);
        assert_eq!(hard.health(), OracleHealth::Quarantined);
        assert_eq!(r.quarantine_transitions, 1);
        // While quarantined, queries are suppressed without computing.
        assert!(!hard.predict_event(1).is_informed());
        assert_eq!(hard.resilience_stats().suppressed, 1);
    }

    #[test]
    fn watchdog_quarantines_then_recovers() {
        // Reference alternates a b; predictions at distance 1 are scored
        // against what actually arrives.
        let seq: Vec<u32> = (0..100).flat_map(|_| [0, 1]).collect();
        let trace = trace_of(&seq);
        let config = ResilienceConfig {
            breaker: BreakerConfig {
                window: 4,
                max_error_rate: 0.5,
                failure_threshold: 8,
                backoff_initial: 4,
                backoff_max: 64,
                probe_window: 2,
                recovery_error_rate: 0.0,
            },
            faults: Some(FaultPlan::none()),
            ..ResilienceConfig::default()
        };
        let mut hard =
            HardenedOracle::try_predict(&trace, 0, PredictorConfig::default(), config).unwrap();
        // Feed only `a`: after each reseed the oracle predicts `b`, the
        // host keeps delivering `a` — every score is wrong.
        hard.event(e(0));
        let mut tripped_at = None;
        for i in 0..16 {
            hard.predict_event(1);
            hard.event(e(0));
            if hard.health() == OracleHealth::Quarantined {
                tripped_at = Some(i);
                break;
            }
        }
        assert!(tripped_at.is_some(), "watchdog never tripped");
        let r = hard.resilience_stats();
        assert!(r.mispredicted >= 4, "{r:?}");
        assert_eq!(r.quarantine_transitions, 1);

        // Ride out the backoff (4 events), then behave: the probe scores
        // correct shadow predictions and the breaker closes again.
        let mut healthy = false;
        hard.event(e(0));
        hard.event(e(1));
        let mut next = 0u32;
        for _ in 0..32 {
            hard.predict_event(1);
            hard.event(e(next));
            next = 1 - next;
            if hard.health() == OracleHealth::Healthy {
                healthy = true;
                break;
            }
        }
        assert!(healthy, "breaker never recovered: {:?}", hard.health());
        let r = hard.resilience_stats();
        assert!(r.degraded_ns > 0);
        assert!(r.suppressed > 0, "probe answers must be withheld");
        // Advice flows again.
        hard.event(e(0));
        assert_eq!(hard.predict_event(1).most_likely(), Some(e(1)));
    }

    #[test]
    fn poisoned_grammar_is_contained_at_construction() {
        let thread = faults::poisoned_thread();
        let err = HardenedOracle::try_predict_thread(
            Arc::clone(&thread),
            PredictorConfig::default(),
            hermetic(),
        )
        .unwrap_err();
        assert!(matches!(err, Error::OracleUnavailable(_)), "{err}");

        let mut hard = HardenedOracle::predict_thread_or_bypass(
            thread,
            PredictorConfig::default(),
            hermetic(),
        );
        assert_eq!(hard.health(), OracleHealth::Poisoned);
        assert!(!hard.predict_event(1).is_informed());
        assert_eq!(hard.event(e(0)), None);
        assert!(hard.resilience_stats().panics_caught >= 1);
    }

    #[test]
    fn lossy_channel_degrades_instead_of_lying() {
        // Drop every 2nd event into the oracle: it desynchronizes from the
        // host stream and the watchdog quarantines it.
        let seq: Vec<u32> = (0..100).flat_map(|_| [0, 1, 2, 3]).collect();
        let trace = trace_of(&seq);
        let config = ResilienceConfig {
            breaker: BreakerConfig {
                window: 8,
                // The half-dropped channel alternates correct/wrong scores
                // (~50% error): set the trip point below that.
                max_error_rate: 0.3,
                backoff_initial: 1 << 30,
                ..BreakerConfig::default()
            },
            faults: Some(FaultPlan {
                drop_every: 2,
                ..FaultPlan::none()
            }),
            ..ResilienceConfig::default()
        };
        let mut hard =
            HardenedOracle::try_predict(&trace, 0, PredictorConfig::default(), config).unwrap();
        for (i, &s) in seq.iter().enumerate().take(80) {
            hard.event(e(s));
            let _ = hard.predict_event(1);
            if hard.health() == OracleHealth::Quarantined {
                assert!(i > 4);
                break;
            }
        }
        assert_eq!(hard.health(), OracleHealth::Quarantined);
        let r = hard.resilience_stats();
        assert!(r.mispredicted > 0, "{r:?}");
    }

    #[test]
    fn record_and_off_modes_pass_through() {
        let mut rec = HardenedOracle::new(Oracle::record(RecordConfig::default()), hermetic());
        assert_eq!(rec.mode(), OracleMode::Record);
        for _ in 0..5 {
            rec.event_at(e(0), 10);
            rec.event_at(e(1), 20);
        }
        assert_eq!(rec.recorded_events(), 10);
        assert!(!rec.predict_event(1).is_informed());
        let thread = rec.finish().unwrap().unwrap();
        assert_eq!(thread.event_count, 10);

        let mut off = HardenedOracle::off(hermetic());
        assert!(off.is_off());
        assert_eq!(off.event(e(0)), None);
        assert!(off.finish().unwrap().is_none());
    }

    /// The watchdog's bookkeeping under mixed distances, held to a naive
    /// model: outstanding predictions form a list sorted by target, equal
    /// targets are scored in registration order, and past `MAX_PENDING`
    /// the oldest target is evicted.
    #[test]
    fn pending_scores_follow_the_naive_sorted_list() {
        const DISTANCES: [usize; 4] = [1, 1, 8, 64];
        let seq: Vec<u32> = (0..120).flat_map(|_| [0, 1, 2, 2, 2, 3]).collect();
        let trace = trace_of(&seq);
        // Windows of two: whether a wrong score closes this window or opens
        // the next moves the trip by an event, so the health asserted at
        // every step follows the order equal targets are scored in.
        let breaker_config = BreakerConfig {
            window: 2,
            max_error_rate: 0.4,
            failure_threshold: 8,
            backoff_initial: 2,
            backoff_max: 16,
            probe_window: 2,
            recovery_error_rate: 0.4,
        };
        let config = ResilienceConfig {
            breaker: breaker_config.clone(),
            ..hermetic()
        };
        let mut hard =
            HardenedOracle::try_predict(&trace, 0, PredictorConfig::default(), config).unwrap();
        let mut bare = Predictor::new(&trace);
        let mut breaker = CircuitBreaker::new(breaker_config);
        let mut model: Vec<PendingScore> = Vec::new();
        let (mut scored, mut mispredicted) = (0u64, 0u64);

        // The reference stream with an out-of-place event now and then and
        // one stretch that matches nothing the oracle expects.
        let stream: Vec<u32> = (0..600)
            .map(|i| match i {
                300..=340 => [3, 1, 0][i % 3],
                _ if i % 7 == 3 => seq[i + 2],
                _ => seq[i],
            })
            .collect();
        for (i, &s) in stream.iter().enumerate() {
            let now = i as u64 + 1;
            assert_eq!(hard.event(e(s)), Some(bare.observe(e(s))));
            while model.first().is_some_and(|p| p.target <= now) {
                let p = model.remove(0);
                if p.target == now {
                    scored += 1;
                    mispredicted += u64::from(p.predicted != e(s));
                    breaker.on_scored(p.predicted == e(s), now);
                }
            }
            breaker.on_event(now);

            // One query per event, plus once a burst that overflows the
            // bound.
            let burst = if i == 40 { MAX_PENDING + 50 } else { 0 };
            for q in 0..1 + burst {
                let distance = if q == 0 { DISTANCES[i % 4] } else { 64 };
                let got = hard.predict_event(distance);
                if !breaker.computes() {
                    assert!(!got.is_informed());
                    continue;
                }
                breaker.on_query_ok();
                let want = bare.predict(distance);
                if let Some(predicted) = want.most_likely() {
                    let target = now + distance as u64;
                    let at = model
                        .iter()
                        .rposition(|p| p.target <= target)
                        .map_or(0, |j| j + 1);
                    model.insert(
                        at,
                        PendingScore {
                            target,
                            registered: 0,
                            predicted,
                        },
                    );
                    if model.len() > MAX_PENDING {
                        model.remove(0);
                    }
                }
                if breaker.advice_allowed() {
                    assert_eq!(got, want);
                } else {
                    assert!(!got.is_informed());
                }
            }
            let r = hard.resilience_stats();
            assert_eq!(
                (r.scored, r.mispredicted),
                (scored, mispredicted),
                "event {i}"
            );
            assert_eq!(r.quarantine_transitions, breaker.transitions(), "event {i}");
            let health = match breaker.state() {
                BreakerState::Closed => OracleHealth::Healthy,
                BreakerState::Open => OracleHealth::Quarantined,
                BreakerState::HalfOpen => OracleHealth::Probing,
            };
            assert_eq!(hard.health(), health, "event {i}");
        }
        assert!(scored > 300 && mispredicted > 20, "{scored} {mispredicted}");
        assert!(breaker.transitions() >= 2, "{}", breaker.transitions());
    }

    /// The naive watchdog model of `pending_scores_follow_the_naive_sorted_list`
    /// as a stepper: outstanding `(target, predicted)` in a list sorted by
    /// target, equal targets in registration order, the oldest target
    /// evicted past `MAX_PENDING`, fed to a breaker of its own.
    struct NaiveWatchdog {
        breaker: CircuitBreaker,
        model: Vec<(u64, EventId)>,
        scored: u64,
        mispredicted: u64,
    }

    impl NaiveWatchdog {
        fn event(&mut self, now: u64, actual: EventId) {
            while self.model.first().is_some_and(|p| p.0 <= now) {
                let (target, predicted) = self.model.remove(0);
                if target == now {
                    self.scored += 1;
                    self.mispredicted += u64::from(predicted != actual);
                    self.breaker.on_scored(predicted == actual, now);
                }
            }
            self.breaker.on_event(now);
        }

        /// One query at `distance` answered `got` by the facade, `want` by
        /// the bare predictor.
        fn query(&mut self, now: u64, distance: usize, got: &Prediction, want: &Prediction) {
            if !self.breaker.computes() {
                assert!(!got.is_informed());
                return;
            }
            self.breaker.on_query_ok();
            if let Some(predicted) = want.most_likely() {
                let target = now + distance as u64;
                let at = self.model.iter().rposition(|p| p.0 <= target);
                self.model
                    .insert(at.map_or(0, |j| j + 1), (target, predicted));
                if self.model.len() > MAX_PENDING {
                    self.model.remove(0);
                }
            }
            if self.breaker.advice_allowed() {
                assert_eq!(got, want);
            } else {
                assert!(!got.is_informed());
            }
        }

        fn health(&self) -> OracleHealth {
            match self.breaker.state() {
                BreakerState::Closed => OracleHealth::Healthy,
                BreakerState::Open => OracleHealth::Quarantined,
                BreakerState::HalfOpen => OracleHealth::Probing,
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The watchdog under random distance sequences, held to the naive
        /// sorted list after every event: up to three queries per event,
        /// each at a fresh distance in 1..=300, at the event's first
        /// distance again, at the previous event's, or at a near one (so
        /// that targets coincide across distances); two bursts of
        /// `MAX_PENDING` queries and more at one distance; out-of-place
        /// events in the stream, so that scores go wrong, the breaker
        /// (windows of two, where the order of a target's scores moves
        /// the trip) opens and closes, and probes score unadvised answers.
        #[test]
        fn pending_scores_follow_the_naive_model_under_random_distances(
            (plan, bursts, noise) in (
                proptest::collection::vec((0usize..4, 1usize..301, 0usize..4), 150..400),
                proptest::collection::vec((0usize..400, 1usize..301, 0usize..200), 2),
                proptest::collection::vec(0u32..12, 400),
            )
        ) {
            use proptest::prop_assert_eq;
            let seq: Vec<u32> = (0..120).flat_map(|_| [0, 1, 2, 2, 2, 3]).collect();
            let trace = trace_of(&seq);
            let breaker_config = BreakerConfig {
                window: 2,
                max_error_rate: 0.4,
                failure_threshold: 8,
                backoff_initial: 2,
                backoff_max: 16,
                probe_window: 2,
                recovery_error_rate: 0.4,
            };
            let config = ResilienceConfig {
                breaker: breaker_config.clone(),
                ..hermetic()
            };
            let mut hard =
                HardenedOracle::try_predict(&trace, 0, PredictorConfig::default(), config).unwrap();
            let mut bare = Predictor::new(&trace);
            let mut naive = NaiveWatchdog {
                breaker: CircuitBreaker::new(breaker_config),
                model: Vec::new(),
                scored: 0,
                mispredicted: 0,
            };
            let mut previous = 1;
            for (i, &(count, fresh, kind)) in plan.iter().enumerate() {
                let now = i as u64 + 1;
                let s = match noise[i] {
                    0 => seq[i + 2],
                    1 => 3 - seq[i],
                    _ => seq[i],
                };
                prop_assert_eq!(hard.event(e(s)), Some(bare.observe(e(s))));
                naive.event(now, e(s));

                let mut distances: Vec<usize> = (0..count)
                    .map(|j| match kind {
                        0 => fresh,
                        1 => previous,
                        2 => (fresh % 8 + j).max(1),
                        _ => (fresh + 37 * j) % 300 + 1,
                    })
                    .collect();
                for &(at, distance, extra) in &bursts {
                    if at == i {
                        distances.extend(std::iter::repeat_n(distance, MAX_PENDING + extra));
                    }
                }
                let mut want = (0, Prediction::default());
                for &distance in &distances {
                    let got = hard.predict_event(distance);
                    if want.0 != distance {
                        want = (distance, bare.predict(distance));
                    }
                    naive.query(now, distance, &got, &want.1);
                }
                previous = distances.first().copied().unwrap_or(previous);

                let r = hard.resilience_stats();
                prop_assert_eq!(
                    (r.scored, r.mispredicted),
                    (naive.scored, naive.mispredicted),
                    "event {}", i
                );
                prop_assert_eq!(r.quarantine_transitions, naive.breaker.transitions(), "event {}", i);
                prop_assert_eq!(hard.health(), naive.health(), "event {}", i);
            }
        }
    }

    #[test]
    fn batch_events_match_oracle_semantics() {
        let seq: Vec<u32> = (0..30).flat_map(|_| [0, 1, 2]).collect();
        let trace = trace_of(&seq);
        let mut bare = Oracle::predict(&trace, 0, PredictorConfig::default()).unwrap();
        let mut hard =
            HardenedOracle::try_predict(&trace, 0, PredictorConfig::default(), hermetic()).unwrap();
        assert_eq!(hard.events(&[e(0), e(1)]), bare.events(&[e(0), e(1)]));
        assert_eq!(hard.events(&[]), None);
        assert_eq!(
            hard.predict_event(1).most_likely(),
            bare.predict_event(1).most_likely()
        );
    }
}
