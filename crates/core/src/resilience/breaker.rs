//! Circuit breaker driving the accuracy watchdog of
//! [`super::HardenedOracle`].
//!
//! The breaker decides, per query, whether the oracle's advice is handed to
//! the host runtime. It moves through the classic three states:
//!
//! * **Closed** — advice flows. Scored predictions accumulate in tumbling
//!   windows; a window whose error rate exceeds the threshold, or a run of
//!   consecutive hard failures (deadline misses), trips the breaker.
//! * **Open** — the oracle is quarantined: queries are answered with the
//!   host default without computing anything. After a backoff measured in
//!   *observed events* (wall clocks make tests nondeterministic and the
//!   event stream is the oracle's own notion of time), the breaker moves to
//!   half-open.
//! * **HalfOpen** — probing: predictions are computed and scored again but
//!   the host still receives the default answer, so a still-broken oracle
//!   cannot do damage while being evaluated. A probe window with a
//!   recovered error rate closes the breaker; a bad window (or any hard
//!   failure) re-opens it with the backoff doubled, up to a cap.

/// Tuning knobs of the [`CircuitBreaker`].
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Scored predictions per accuracy window while closed. Must be ≥ 1.
    pub window: usize,
    /// Error rate over a closed window that trips the breaker (strictly
    /// above trips).
    pub max_error_rate: f64,
    /// Consecutive hard failures (deadline misses) that trip the breaker
    /// regardless of accuracy. Must be ≥ 1.
    pub failure_threshold: u32,
    /// Events the breaker stays open after the first trip.
    pub backoff_initial: u64,
    /// Backoff cap for the exponential escalation.
    pub backoff_max: u64,
    /// Scored shadow predictions per half-open probe. Must be ≥ 1.
    pub probe_window: usize,
    /// Error rate over a probe window at or below which the breaker closes
    /// again.
    pub recovery_error_rate: f64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 64,
            max_error_rate: 0.5,
            failure_threshold: 8,
            backoff_initial: 64,
            backoff_max: 4096,
            probe_window: 16,
            recovery_error_rate: 0.25,
        }
    }
}

/// Where the breaker currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Advice flows to the host.
    Closed,
    /// Quarantined: queries answer the host default, nothing is computed.
    Open,
    /// Probing: predictions are computed and scored, but the host still
    /// receives the default answer.
    HalfOpen,
}

/// The accuracy-watchdog state machine. Time is measured in observed
/// events; the caller passes its running event count as `now`.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    /// Scored predictions in the current (closed or probe) window.
    scored: usize,
    /// Mispredictions in the current window.
    wrong: usize,
    /// Consecutive hard failures since the last successful query.
    hard_failures: u32,
    /// Current backoff length in events (doubles on each re-trip).
    backoff: u64,
    /// Event count at which an open breaker moves to half-open.
    reopen_at: u64,
    /// Times the breaker tripped (entered [`BreakerState::Open`]).
    transitions: u64,
}

impl CircuitBreaker {
    /// A closed breaker with the given configuration (capacities are
    /// clamped to ≥ 1 so a zeroed config cannot divide by zero).
    pub fn new(config: BreakerConfig) -> Self {
        let backoff = config.backoff_initial.max(1);
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            scored: 0,
            wrong: 0,
            hard_failures: 0,
            backoff,
            reopen_at: 0,
            transitions: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Times the breaker tripped into [`BreakerState::Open`].
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Whether computed advice may be handed to the host (closed only).
    pub fn advice_allowed(&self) -> bool {
        self.state == BreakerState::Closed
    }

    /// Whether predictions should be computed at all (closed or probing).
    pub fn computes(&self) -> bool {
        self.state != BreakerState::Open
    }

    /// Called on every observed event; moves an open breaker to half-open
    /// once the backoff has elapsed.
    pub fn on_event(&mut self, now: u64) {
        if self.state == BreakerState::Open && now >= self.reopen_at {
            self.state = BreakerState::HalfOpen;
            self.scored = 0;
            self.wrong = 0;
            self.hard_failures = 0;
        }
    }

    /// Scores one resolved prediction against the event that actually
    /// occurred. Kept out of line: the watchdog calls it once per scored
    /// prediction, and its window bookkeeping would crowd the facade's
    /// per-event path.
    #[inline(never)]
    pub fn on_scored(&mut self, correct: bool, now: u64) {
        match self.state {
            BreakerState::Open => {}
            BreakerState::Closed => {
                self.scored += 1;
                if !correct {
                    self.wrong += 1;
                }
                if self.scored >= self.config.window.max(1) {
                    let rate = self.wrong as f64 / self.scored as f64;
                    if rate > self.config.max_error_rate {
                        self.trip(now, false);
                    } else {
                        self.scored = 0;
                        self.wrong = 0;
                    }
                }
            }
            BreakerState::HalfOpen => {
                self.scored += 1;
                if !correct {
                    self.wrong += 1;
                }
                if self.scored >= self.config.probe_window.max(1) {
                    let rate = self.wrong as f64 / self.scored as f64;
                    if rate <= self.config.recovery_error_rate {
                        self.state = BreakerState::Closed;
                        self.backoff = self.config.backoff_initial.max(1);
                        self.scored = 0;
                        self.wrong = 0;
                        self.hard_failures = 0;
                    } else {
                        self.trip(now, true);
                    }
                }
            }
        }
    }

    /// Reports a hard failure (a query that blew its time budget).
    pub fn on_hard_failure(&mut self, now: u64) {
        match self.state {
            BreakerState::Open => {}
            BreakerState::Closed => {
                self.hard_failures += 1;
                if self.hard_failures >= self.config.failure_threshold.max(1) {
                    self.trip(now, false);
                }
            }
            // A probe that still fails hard re-opens immediately.
            BreakerState::HalfOpen => self.trip(now, true),
        }
    }

    /// Reports a query answered within budget (resets the consecutive
    /// hard-failure run).
    pub fn on_query_ok(&mut self) {
        self.hard_failures = 0;
    }

    /// Trips into [`BreakerState::Open`]; `escalate` doubles the backoff
    /// (used when a half-open probe fails).
    fn trip(&mut self, now: u64, escalate: bool) {
        if escalate {
            self.backoff = (self.backoff.saturating_mul(2)).min(self.config.backoff_max.max(1));
        }
        self.state = BreakerState::Open;
        self.reopen_at = now.saturating_add(self.backoff);
        self.scored = 0;
        self.wrong = 0;
        self.hard_failures = 0;
        self.transitions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            window: 4,
            max_error_rate: 0.5,
            failure_threshold: 3,
            backoff_initial: 10,
            backoff_max: 35,
            probe_window: 2,
            recovery_error_rate: 0.0,
        }
    }

    #[test]
    fn closed_to_open_on_error_rate() {
        let mut b = CircuitBreaker::new(cfg());
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.advice_allowed());
        // 3 wrong out of 4 > 0.5 → trip at window end.
        for (i, correct) in [false, true, false, false].into_iter().enumerate() {
            b.on_scored(correct, i as u64);
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.advice_allowed());
        assert!(!b.computes());
        assert_eq!(b.transitions(), 1);
    }

    #[test]
    fn accurate_windows_keep_it_closed() {
        let mut b = CircuitBreaker::new(cfg());
        // 2 wrong out of 4 == 0.5, not strictly above → stays closed.
        for round in 0..10u64 {
            for (i, correct) in [true, false, true, false].into_iter().enumerate() {
                b.on_scored(correct, round * 4 + i as u64);
            }
            assert_eq!(b.state(), BreakerState::Closed);
        }
        assert_eq!(b.transitions(), 0);
    }

    #[test]
    fn closed_to_open_on_consecutive_hard_failures() {
        let mut b = CircuitBreaker::new(cfg());
        b.on_hard_failure(0);
        b.on_hard_failure(1);
        // A success in between resets the run.
        b.on_query_ok();
        b.on_hard_failure(2);
        b.on_hard_failure(3);
        assert_eq!(b.state(), BreakerState::Closed);
        b.on_hard_failure(4);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.transitions(), 1);
    }

    #[test]
    fn open_to_half_open_after_backoff() {
        let mut b = CircuitBreaker::new(cfg());
        for i in 0..4 {
            b.on_scored(false, i);
        }
        assert_eq!(b.state(), BreakerState::Open);
        // Backoff is 10 events from the trip at event 3.
        b.on_event(12);
        assert_eq!(b.state(), BreakerState::Open);
        b.on_event(13);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.computes());
        assert!(!b.advice_allowed());
    }

    #[test]
    fn half_open_closes_on_recovered_accuracy() {
        let mut b = CircuitBreaker::new(cfg());
        for i in 0..4 {
            b.on_scored(false, i);
        }
        b.on_event(13);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.on_scored(true, 14);
        b.on_scored(true, 15);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.advice_allowed());
        assert_eq!(b.transitions(), 1);
    }

    #[test]
    fn half_open_failure_doubles_backoff_up_to_cap() {
        let mut b = CircuitBreaker::new(cfg());
        for i in 0..4 {
            b.on_scored(false, i);
        }
        assert_eq!(b.state(), BreakerState::Open);
        // First probe fails → backoff 10 → 20.
        b.on_event(13);
        b.on_scored(false, 13);
        b.on_scored(false, 14);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.transitions(), 2);
        b.on_event(33);
        assert_eq!(b.state(), BreakerState::Open);
        b.on_event(34);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Second probe fails hard → 20 → 35 (capped below 40).
        b.on_hard_failure(34);
        assert_eq!(b.state(), BreakerState::Open);
        b.on_event(68);
        assert_eq!(b.state(), BreakerState::Open);
        b.on_event(69);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Recovery resets the backoff to its initial value.
        b.on_scored(true, 70);
        b.on_scored(true, 71);
        assert_eq!(b.state(), BreakerState::Closed);
        for i in 0..4 {
            b.on_scored(false, 72 + i);
        }
        assert_eq!(b.state(), BreakerState::Open);
        b.on_event(75 + 10);
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn open_ignores_scores_and_failures() {
        let mut b = CircuitBreaker::new(cfg());
        for i in 0..4 {
            b.on_scored(false, i);
        }
        assert_eq!(b.transitions(), 1);
        b.on_scored(false, 5);
        b.on_hard_failure(6);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.transitions(), 1);
    }
}
