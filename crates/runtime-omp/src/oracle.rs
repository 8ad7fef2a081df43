//! The PYTHIA-driven OpenMP listener: records region events, predicts
//! region durations, chooses team sizes, and injects errors on demand.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use pythia_core::error::{Error, Result};
use pythia_core::event::{EventId, EventRegistry};
use pythia_core::oracle::Oracle;
use pythia_core::predict::{ObserveOutcome, PredictorConfig};
use pythia_core::record::RecordConfig;
use pythia_core::resilience::{HardenedOracle, OracleHealth, ResilienceConfig, ResilienceStats};
use pythia_core::trace::TraceData;
use pythia_core::util::FxHashMap;
use pythia_minomp::{OmpListener, RegionId, ThreadChoice};

use crate::policy::ThresholdPolicy;

/// Event key points submitted by the OpenMP runtime (paper §III-B: the
/// interception of `GOMP_parallel`-style functions).
const REGION_BEGIN: &str = "omp_region_begin";
const REGION_END: &str = "omp_region_end";
/// Key point used by the §III-E resilience experiment: a payload drawn
/// from a huge random space, so the event (almost surely) never occurred
/// in the reference execution.
const NOISE: &str = "omp_unexpected";

/// Statistics accumulated by the listener.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OmpStats {
    /// Parallel regions observed.
    pub regions: u64,
    /// Regions whose team size was adapted (not runtime default).
    pub adapted: u64,
    /// Duration predictions that returned no information.
    pub uninformed: u64,
    /// Unexpected events injected (§III-E).
    pub injected_errors: u64,
    /// Histogram of chosen team sizes: `(team, regions)`.
    pub team_histogram: Vec<(usize, u64)>,
}

impl OmpStats {
    fn count_team(&mut self, team: usize) {
        if let Some(e) = self.team_histogram.iter_mut().find(|e| e.0 == team) {
            e.1 += 1;
        } else {
            self.team_histogram.push((team, 1));
            self.team_histogram.sort_by_key(|e| e.0);
        }
    }
}

struct State {
    oracle: HardenedOracle,
    registry: EventRegistry,
    cache: FxHashMap<(u32, bool), EventId>,
    policy: Option<ThresholdPolicy>,
    error_rate: f64,
    rng: SmallRng,
    stats: OmpStats,
    last_choice: ThreadChoice,
}

impl State {
    fn event_for(&mut self, region: RegionId, begin: bool) -> EventId {
        if let Some(&id) = self.cache.get(&(region.0, begin)) {
            return id;
        }
        let name = if begin { REGION_BEGIN } else { REGION_END };
        let id = self.registry.intern(name, Some(region.0 as i64));
        self.cache.insert((region.0, begin), id);
        id
    }
}

/// Shared handle to the PYTHIA OpenMP integration: create one per run,
/// install [`OmpOracle::listener`] into the [`pythia_minomp::OmpRuntime`],
/// then read back the recording or the statistics.
#[derive(Clone)]
pub struct OmpOracle {
    state: Arc<Mutex<State>>,
}

impl OmpOracle {
    /// Record mode: build the reference trace of the master thread's
    /// region stream (PYTHIA-RECORD with timestamps — duration prediction
    /// needs them).
    pub fn recorder() -> Self {
        Self::from_parts(
            HardenedOracle::new(
                Oracle::record(RecordConfig {
                    timestamps: true,
                    validate: false,
                }),
                ResilienceConfig::default(),
            ),
            EventRegistry::new(),
            None,
            0.0,
            0,
        )
    }

    /// Predict mode: adapt team sizes using duration predictions, with an
    /// error-injection rate in `[0, 1]` (0 = §III-D behavior; > 0 =
    /// §III-E resilience experiment) and a deterministic RNG seed.
    ///
    /// Never fails: a trace that cannot drive a predictor (missing thread
    /// 0, hostile grammar) yields a *bypassed* oracle — every region runs
    /// with the default (maximum) team size and
    /// [`OmpOracle::resilience_stats`] reports the degradation. Use
    /// [`OmpOracle::try_predictor`] to surface setup problems as errors.
    pub fn predictor(
        trace: &TraceData,
        policy: ThresholdPolicy,
        error_rate: f64,
        seed: u64,
    ) -> Self {
        Self::predictor_with(trace, policy, error_rate, seed, ResilienceConfig::default())
    }

    /// [`OmpOracle::predictor`] with explicit hardening knobs (time
    /// budget, watchdog thresholds, fault injection).
    pub fn predictor_with(
        trace: &TraceData,
        policy: ThresholdPolicy,
        error_rate: f64,
        seed: u64,
        resilience: ResilienceConfig,
    ) -> Self {
        assert!((0.0..=1.0).contains(&error_rate));
        let oracle =
            HardenedOracle::predict_or_bypass(trace, 0, PredictorConfig::default(), resilience);
        Self::from_parts(
            oracle,
            trace.registry().clone(),
            Some(policy),
            error_rate,
            seed,
        )
    }

    /// [`OmpOracle::predictor`] that errors instead of degrading when the
    /// trace cannot drive a predictor.
    pub fn try_predictor(
        trace: &TraceData,
        policy: ThresholdPolicy,
        error_rate: f64,
        seed: u64,
        resilience: ResilienceConfig,
    ) -> Result<Self> {
        assert!((0.0..=1.0).contains(&error_rate));
        let oracle = HardenedOracle::try_predict(trace, 0, PredictorConfig::default(), resilience)?;
        Ok(Self::from_parts(
            oracle,
            trace.registry().clone(),
            Some(policy),
            error_rate,
            seed,
        ))
    }

    /// Vanilla mode: observe nothing, always default team size (useful to
    /// run the three configurations through identical plumbing).
    pub fn vanilla() -> Self {
        Self::from_parts(
            HardenedOracle::off(ResilienceConfig::default()),
            EventRegistry::new(),
            None,
            0.0,
            0,
        )
    }

    fn from_parts(
        oracle: HardenedOracle,
        registry: EventRegistry,
        policy: Option<ThresholdPolicy>,
        error_rate: f64,
        seed: u64,
    ) -> Self {
        OmpOracle {
            state: Arc::new(Mutex::new(State {
                oracle,
                registry,
                cache: FxHashMap::default(),
                policy,
                error_rate,
                rng: SmallRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15),
                stats: OmpStats::default(),
                last_choice: ThreadChoice::Default,
            })),
        }
    }

    /// A listener handle to install into an `OmpRuntime`.
    pub fn listener(&self) -> Box<dyn OmpListener> {
        Box::new(OracleListener {
            state: Arc::clone(&self.state),
        })
    }

    /// Statistics so far.
    pub fn stats(&self) -> OmpStats {
        self.state.lock().stats.clone()
    }

    /// The team-size choice made for the most recent region (diagnostics).
    pub fn last_choice(&self) -> ThreadChoice {
        self.state.lock().last_choice
    }

    /// Resilience counters of the underlying hardened oracle facade.
    pub fn resilience_stats(&self) -> ResilienceStats {
        self.state.lock().oracle.resilience_stats()
    }

    /// Current condition of the underlying hardened oracle facade.
    pub fn health(&self) -> OracleHealth {
        self.state.lock().oracle.health()
    }

    /// Finishes a recording run into a trace. All listener handles must
    /// have been dropped (the runtime must be gone).
    ///
    /// Errors with [`Error::OracleUnavailable`] if listeners are still
    /// alive, the oracle was not recording, or the recording oracle
    /// panicked (a poisoned recording cannot be trusted).
    pub fn finish_trace(self) -> Result<TraceData> {
        let state = Arc::try_unwrap(self.state)
            .map_err(|_| {
                Error::OracleUnavailable(
                    "listeners still alive: drop the OmpRuntime before finish_trace".into(),
                )
            })?
            .into_inner();
        let registry = state.registry;
        state
            .oracle
            .finish()?
            .map(|t| TraceData::from_threads(vec![t], registry))
            .ok_or_else(|| {
                Error::OracleUnavailable("no recording to finish (not a record-mode run)".into())
            })
    }
}

struct OracleListener {
    state: Arc<Mutex<State>>,
}

impl OmpListener for OracleListener {
    fn region_begin(&mut self, region: RegionId) -> ThreadChoice {
        let mut st = self.state.lock();
        st.stats.regions += 1;

        // §III-E: randomly submit an event that does not exist in the
        // reference execution. The bogus marker and the real region-begin
        // event are submitted as one batch — a single oracle dispatch, and
        // the returned outcome is the last (real) event's, as before.
        let outcome = if st.error_rate > 0.0 && st.rng.gen::<f64>() < st.error_rate {
            let bogus: i64 = st.rng.gen();
            let noise = st.registry.intern(NOISE, Some(bogus));
            st.stats.injected_errors += 1;
            let id = st.event_for(region, true);
            st.oracle.events(&[noise, id])
        } else {
            let id = st.event_for(region, true);
            st.oracle.event(id)
        };

        let choice = if let Some(policy) = st.policy.clone() {
            // Only trust the oracle while it is tracking the reference
            // stream: right after an unexpected event (paper §II-B2 /
            // §III-E) the runtime "must again temporarily rely on
            // heuristics" — i.e. the default (maximum) team size.
            let synchronized = matches!(outcome, Some(ObserveOutcome::Matched));
            // The next event in the reference stream is this region's end:
            // its predicted delay is the region's estimated duration. A
            // degraded facade (quarantined, poisoned, over budget) answers
            // `None` and the policy falls back to the default team size.
            let d_est: Option<Duration> = if synchronized {
                st.oracle.predict_delay(1)
            } else {
                None
            };
            if d_est.is_none() {
                st.stats.uninformed += 1;
            }
            let choice = policy.choose(d_est);
            if matches!(choice, ThreadChoice::Exactly(_)) {
                st.stats.adapted += 1;
            }
            choice
        } else {
            ThreadChoice::Default
        };
        st.last_choice = choice;
        choice
    }

    fn region_end(&mut self, region: RegionId, team: usize) {
        let mut st = self.state.lock();
        let id = st.event_for(region, false);
        st.oracle.event(id);
        st.stats.count_team(team);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_minomp::{OmpRuntime, PoolMode};

    fn spin(duration: Duration) {
        let start = std::time::Instant::now();
        while start.elapsed() < duration {
            std::hint::spin_loop();
        }
    }

    /// Runs `iters` iterations of a short region and a long region.
    fn run_two_region_app(oracle: &OmpOracle, max_threads: usize, iters: usize) {
        let rt = OmpRuntime::with_listener(max_threads, PoolMode::Park, oracle.listener());
        for _ in 0..iters {
            rt.parallel(RegionId(1), |_, _| spin(Duration::from_micros(5)));
            rt.parallel(RegionId(2), |_, _| spin(Duration::from_micros(1500)));
        }
    }

    #[test]
    fn recording_builds_region_trace() {
        let oracle = OmpOracle::recorder();
        run_two_region_app(&oracle, 4, 25);
        assert_eq!(oracle.stats().regions, 50);
        let trace = oracle.finish_trace().unwrap();
        assert_eq!(trace.total_events(), 100); // begin+end per region
        assert!(trace.registry().lookup(REGION_BEGIN, Some(1)).is_some());
        assert!(trace.registry().lookup(REGION_END, Some(2)).is_some());
    }

    #[test]
    fn predictor_shrinks_short_regions() {
        let oracle = OmpOracle::recorder();
        run_two_region_app(&oracle, 4, 30);
        let trace = oracle.finish_trace().unwrap();

        // One cut between the two regions, far above the short one: what
        // is recorded for a 5µs region is mostly wake-up latency, which on
        // a loaded host reaches the default table's 200µs bucket.
        let policy = ThresholdPolicy::new(vec![(Duration::from_millis(1), 1)]);
        let oracle = OmpOracle::predictor(&trace, policy, 0.0, 7);
        run_two_region_app(&oracle, 4, 30);
        let stats = oracle.stats();
        assert_eq!(stats.regions, 60);
        // The 5µs region must get a smaller team than the 1.5ms region.
        assert!(stats.adapted > 0, "{stats:?}");
        let min_team = stats.team_histogram.iter().map(|e| e.0).min().unwrap();
        let max_team = stats.team_histogram.iter().map(|e| e.0).max().unwrap();
        assert!(
            min_team < max_team,
            "short and long regions got the same team size: {stats:?}"
        );
    }

    #[test]
    fn vanilla_always_max_threads() {
        let oracle = OmpOracle::vanilla();
        run_two_region_app(&oracle, 3, 10);
        let stats = oracle.stats();
        assert_eq!(stats.regions, 20);
        assert_eq!(stats.adapted, 0);
        assert_eq!(stats.team_histogram, vec![(3, 20)]);
    }

    #[test]
    fn error_injection_counts_and_still_runs() {
        let oracle = OmpOracle::recorder();
        run_two_region_app(&oracle, 2, 40);
        let trace = oracle.finish_trace().unwrap();

        let oracle = OmpOracle::predictor(&trace, ThresholdPolicy::default(), 0.5, 1234);
        run_two_region_app(&oracle, 2, 40);
        let stats = oracle.stats();
        assert!(stats.injected_errors > 10, "{stats:?}");
        assert!(stats.injected_errors < 70, "{stats:?}");
        // With errors, some predictions come back uninformed.
        assert!(stats.uninformed > 0, "{stats:?}");
    }

    #[test]
    fn panicking_predictor_falls_back_to_max_threads() {
        use pythia_core::resilience::FaultPlan;

        let oracle = OmpOracle::recorder();
        run_two_region_app(&oracle, 3, 10);
        let trace = oracle.finish_trace().unwrap();

        let resilience = ResilienceConfig {
            faults: Some(FaultPlan {
                panic_on_predict: true,
                ..FaultPlan::none()
            }),
            ..ResilienceConfig::default()
        };
        let oracle =
            OmpOracle::predictor_with(&trace, ThresholdPolicy::default(), 0.0, 3, resilience);
        let silent_guard = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        run_two_region_app(&oracle, 3, 10);
        std::panic::set_hook(silent_guard);
        // Every region still ran, all with the default (maximum) team —
        // graceful degradation to the vanilla OpenMP decision.
        let stats = oracle.stats();
        assert_eq!(stats.regions, 20);
        assert_eq!(stats.adapted, 0, "{stats:?}");
        assert_eq!(stats.team_histogram, vec![(3, 20)]);
        assert_eq!(oracle.health(), OracleHealth::Poisoned);
        let r = oracle.resilience_stats();
        assert_eq!(r.panics_caught, 1);
        assert!(r.quarantine_transitions >= 1);
        assert!(r.degraded_ns > 0);
    }

    #[test]
    fn finish_trace_errors_outside_record_mode() {
        let err = OmpOracle::vanilla().finish_trace().unwrap_err();
        assert!(matches!(err, Error::OracleUnavailable(_)), "{err}");
    }

    #[test]
    fn zero_error_rate_injects_nothing() {
        let oracle = OmpOracle::recorder();
        run_two_region_app(&oracle, 2, 10);
        let trace = oracle.finish_trace().unwrap();
        let oracle = OmpOracle::predictor(&trace, ThresholdPolicy::default(), 0.0, 5);
        run_two_region_app(&oracle, 2, 10);
        assert_eq!(oracle.stats().injected_errors, 0);
    }
}

#[cfg(test)]
mod choice_tests {
    use super::*;
    use pythia_minomp::{OmpRuntime, PoolMode, RegionId};

    #[test]
    fn last_choice_tracks_decisions() {
        let oracle = OmpOracle::vanilla();
        {
            let rt = OmpRuntime::with_listener(4, PoolMode::Park, oracle.listener());
            rt.parallel(RegionId(0), |_, _| {});
        }
        assert_eq!(oracle.last_choice(), ThreadChoice::Default);
    }
}
