//! Rank-failure bookkeeping shared by every backend.
//!
//! A world owns one [`FailureState`]. Blocking primitives consult it on
//! every wakeup: once the world is *poisoned* (some rank failed and the
//! world is not elastic), a blocked survivor aborts its call by panicking
//! with a [`PoisonedWorld`] payload instead of waiting forever. Elastic
//! worlds never poison — survivors keep waiting for a replacement rank to
//! rejoin and satisfy the rendezvous.
//!
//! Detection has two paths:
//!
//! * **Supervised** — the death is observed directly (the failed rank's
//!   own panic catch in the threads backend, connection EOF in the socket
//!   hub) and reported through [`FailureState::mark_failed`].
//! * **Heartbeat** — when `PYTHIA_RANK_TIMEOUT_MS` is set, blocking waits
//!   become timed polls; on each timeout the waiter scans peer heartbeats
//!   and declares any rank dead that is neither parked in a blocking call
//!   nor has shown activity within the timeout. This is what catches a
//!   *hung* rank, which never panics and never closes a connection.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

/// Environment variable arming heartbeat-based hang detection: blocking
/// waits poll at this period (milliseconds) and declare a silent,
/// non-waiting peer dead after it. Unset (the default) means blocking
/// waits are untimed and only supervised detection applies — no false
/// positives from compute-heavy ranks that go quiet legitimately.
pub const RANK_TIMEOUT_ENV: &str = "PYTHIA_RANK_TIMEOUT_MS";

/// The kind of rank fault being injected or reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankFault {
    /// The rank panics (models an application crash with unwinding).
    Panic,
    /// The rank stops making progress without dying (models a livelock or
    /// a peer stuck in a non-communication syscall).
    Hang,
    /// The rank vanishes without unwinding (models a severed connection
    /// or an external `kill -9`).
    Disconnect,
}

impl fmt::Display for RankFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RankFault::Panic => write!(f, "panic"),
            RankFault::Hang => write!(f, "hang"),
            RankFault::Disconnect => write!(f, "disconnect"),
        }
    }
}

/// Panic payload used by blocking primitives to abort out of a poisoned
/// world: carries the rank whose failure poisoned it. A rank catching its
/// own panic downcasts for this type to tell an induced abort apart from
/// the original failure.
#[derive(Debug, Clone, Copy)]
pub struct PoisonedWorld {
    /// The rank whose failure poisoned the world.
    pub rank: usize,
}

impl fmt::Display for PoisonedWorld {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "world poisoned by failure of rank {}", self.rank)
    }
}

/// Error returned by the fault-aware world entry points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommError {
    /// A rank failed and the world aborted instead of hanging.
    RankFailed {
        /// The first rank observed to fail.
        rank: usize,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::RankFailed { rank } => write!(f, "rank {rank} failed"),
        }
    }
}

impl std::error::Error for CommError {}

/// Failure bookkeeping for one world. Shared (via `Arc`) by every
/// mailbox, rendezvous board, and communicator handle of the world.
#[derive(Debug)]
pub struct FailureState {
    /// World size (0 for a detached state that never detects anything).
    size: usize,
    /// Heartbeat poll period; `None` disables timed waits entirely.
    timeout: Option<Duration>,
    start: Instant,
    /// Per-rank last-activity stamp, ms since `start`.
    beats: Vec<AtomicU64>,
    /// Per-rank "currently parked in a blocking call" flag — a waiting
    /// rank is quiet but alive, so the stall scan must skip it.
    waiting: Vec<AtomicBool>,
    /// Rank that poisoned the world (-1 = not poisoned).
    poisoned_by: AtomicI64,
    /// Ranks declared failed (supervised or heartbeat-detected).
    failed: Mutex<BTreeSet<usize>>,
    /// Newly-declared failures (monotone; survives elastic replacement).
    detected: AtomicU64,
    /// Elastic worlds mark failures but never poison: survivors keep
    /// blocking until a replacement rank satisfies the rendezvous.
    elastic: AtomicBool,
    /// Parking lot for ranks executing an injected hang.
    park: Mutex<()>,
    park_cv: Condvar,
}

impl FailureState {
    /// State for a world of `size` ranks; heartbeat detection is armed
    /// from [`RANK_TIMEOUT_ENV`].
    pub fn new(size: usize) -> Self {
        let timeout = std::env::var(RANK_TIMEOUT_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .filter(|&ms| ms > 0)
            .map(Duration::from_millis);
        Self::with_timeout(size, timeout)
    }

    /// State with an explicit poll period (tests).
    pub fn with_timeout(size: usize, timeout: Option<Duration>) -> Self {
        FailureState {
            size,
            timeout,
            start: Instant::now(),
            beats: (0..size).map(|_| AtomicU64::new(0)).collect(),
            waiting: (0..size).map(|_| AtomicBool::new(false)).collect(),
            poisoned_by: AtomicI64::new(-1),
            failed: Mutex::new(BTreeSet::new()),
            detected: AtomicU64::new(0),
            elastic: AtomicBool::new(false),
            park: Mutex::new(()),
            park_cv: Condvar::new(),
        }
    }

    /// A state that never detects or poisons — the default for standalone
    /// mailboxes and boards constructed outside a world.
    pub fn detached() -> Self {
        Self::with_timeout(0, None)
    }

    /// Marks the world elastic: failures are recorded but the world is
    /// never poisoned, so survivors wait for a replacement instead of
    /// aborting.
    pub fn set_elastic(&self, elastic: bool) {
        self.elastic.store(elastic, Ordering::SeqCst);
    }

    /// Whether the world is elastic.
    pub fn is_elastic(&self) -> bool {
        self.elastic.load(Ordering::SeqCst)
    }

    /// The poll period for blocking waits (`None` = wait untimed).
    pub fn wait_budget(&self) -> Option<Duration> {
        self.timeout
    }

    /// Records activity of `rank`. No-op when heartbeat detection is
    /// disarmed (keeps the hot path to a single branch) or `rank` is out
    /// of range (detached primitives).
    pub fn beat(&self, rank: usize) {
        if self.timeout.is_none() {
            return;
        }
        if let Some(b) = self.beats.get(rank) {
            b.store(self.start.elapsed().as_millis() as u64, Ordering::Relaxed);
        }
    }

    /// Flags `rank` as parked in a blocking call (alive but quiet).
    pub fn begin_wait(&self, rank: usize) {
        if let Some(w) = self.waiting.get(rank) {
            w.store(true, Ordering::SeqCst);
        }
    }

    /// Clears the parked flag and restamps the heartbeat.
    pub fn end_wait(&self, rank: usize) {
        if let Some(w) = self.waiting.get(rank) {
            w.store(false, Ordering::SeqCst);
        }
        self.beat(rank);
    }

    /// The rank whose failure poisoned the world, if any.
    pub fn poisoned(&self) -> Option<usize> {
        let v = self.poisoned_by.load(Ordering::SeqCst);
        (v >= 0).then_some(v as usize)
    }

    /// Poisons the world on behalf of failed rank `by` and wakes parked
    /// hang victims. Callers owning blocking primitives must additionally
    /// wake those (`fail_rank` does; heartbeat waiters discover the flag
    /// on their next poll).
    pub fn poison(&self, by: usize) {
        let _ =
            self.poisoned_by
                .compare_exchange(-1, by as i64, Ordering::SeqCst, Ordering::SeqCst);
        self.park_cv.notify_all();
    }

    /// Declares `rank` failed; returns true (and bumps the detection
    /// counter) when this is news.
    pub fn mark_failed(&self, rank: usize) -> bool {
        let newly = self.failed.lock().insert(rank);
        if newly {
            self.detected.fetch_add(1, Ordering::SeqCst);
        }
        newly
    }

    /// Forgets a failure record (an elastic replacement rejoined).
    pub fn clear_failed(&self, rank: usize) {
        self.failed.lock().remove(&rank);
    }

    /// Whether `rank` is currently marked failed.
    pub fn is_failed(&self, rank: usize) -> bool {
        self.failed.lock().contains(&rank)
    }

    /// The first rank marked failed, if any.
    pub fn first_failed(&self) -> Option<usize> {
        self.failed.lock().iter().next().copied()
    }

    /// Rank failures detected so far (monotone).
    pub fn detected(&self) -> u64 {
        self.detected.load(Ordering::SeqCst)
    }

    /// Heartbeat stall scan, run by a waiter whose timed wait expired:
    /// declares dead any peer that is neither parked in a blocking call
    /// nor has beaten within the poll period, and poisons the world
    /// (unless elastic). Returns the suspect, if one was found.
    pub fn suspect_stall(&self, me: usize) -> Option<usize> {
        let timeout = self.timeout?;
        let now = self.start.elapsed().as_millis() as u64;
        let budget = timeout.as_millis() as u64;
        for rank in 0..self.size {
            if rank == me || self.waiting[rank].load(Ordering::SeqCst) || self.is_failed(rank) {
                continue;
            }
            let last = self.beats[rank].load(Ordering::Relaxed);
            if now.saturating_sub(last) > budget {
                self.mark_failed(rank);
                if !self.is_elastic() {
                    self.poison(rank);
                }
                return Some(rank);
            }
        }
        None
    }

    /// Parks the calling rank as an injected hang: it stops beating and
    /// never returns normally. Once a peer's stall scan poisons the world
    /// the parked rank panics with [`PoisonedWorld`], letting its thread
    /// unwind (models the process manager of a real deployment killing
    /// the hung process).
    pub fn park_hung(&self, rank: usize) -> ! {
        let mut guard = self.park.lock();
        loop {
            if let Some(by) = self.poisoned() {
                drop(guard);
                std::panic::panic_any(PoisonedWorld { rank: by });
            }
            if self.is_failed(rank) && self.is_elastic() {
                // Marked failed in an elastic world: unwind, to be replaced.
                drop(guard);
                std::panic::panic_any(PoisonedWorld { rank });
            }
            self.park_cv.wait_for(&mut guard, Duration::from_millis(50));
        }
    }

    /// Panics with [`PoisonedWorld`] when the world is poisoned — the
    /// fast-path check blocking primitives run before and after waiting.
    pub fn abort_if_poisoned(&self) {
        if let Some(by) = self.poisoned() {
            std::panic::panic_any(PoisonedWorld { rank: by });
        }
    }
}

impl Default for FailureState {
    fn default() -> Self {
        Self::detached()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn detached_state_is_inert() {
        let fs = FailureState::detached();
        fs.beat(3);
        fs.begin_wait(7);
        fs.end_wait(7);
        assert_eq!(fs.poisoned(), None);
        assert_eq!(fs.suspect_stall(0), None);
        assert_eq!(fs.detected(), 0);
    }

    #[test]
    fn mark_failed_counts_once() {
        let fs = FailureState::with_timeout(4, None);
        assert!(fs.mark_failed(2));
        assert!(!fs.mark_failed(2));
        assert_eq!(fs.detected(), 1);
        assert!(fs.is_failed(2));
        assert_eq!(fs.first_failed(), Some(2));
        fs.clear_failed(2);
        assert!(!fs.is_failed(2));
        // Detection stays monotone across replacement.
        assert_eq!(fs.detected(), 1);
    }

    #[test]
    fn poison_is_sticky_and_first_wins() {
        let fs = FailureState::with_timeout(2, None);
        fs.poison(1);
        fs.poison(0);
        assert_eq!(fs.poisoned(), Some(1));
    }

    #[test]
    fn stall_scan_skips_waiting_and_self() {
        let fs = FailureState::with_timeout(3, Some(Duration::from_millis(5)));
        // All beats are at t=0; after the budget passes, rank 1 (quiet,
        // not waiting) is the suspect while rank 2 (parked) is spared.
        fs.begin_wait(2);
        std::thread::sleep(Duration::from_millis(20));
        let suspect = fs.suspect_stall(0);
        assert_eq!(suspect, Some(1));
        assert_eq!(fs.poisoned(), Some(1));
        assert_eq!(fs.detected(), 1);
    }

    #[test]
    fn elastic_stall_marks_without_poisoning() {
        let fs = FailureState::with_timeout(2, Some(Duration::from_millis(5)));
        fs.set_elastic(true);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(fs.suspect_stall(0), Some(1));
        assert_eq!(fs.poisoned(), None);
        assert!(fs.is_failed(1));
    }

    #[test]
    fn beats_keep_a_rank_alive() {
        let fs = FailureState::with_timeout(2, Some(Duration::from_millis(40)));
        for _ in 0..5 {
            std::thread::sleep(Duration::from_millis(10));
            fs.beat(1);
        }
        assert_eq!(fs.suspect_stall(0), None);
    }

    #[test]
    fn parked_hang_unwinds_on_poison() {
        let fs = Arc::new(FailureState::with_timeout(
            2,
            Some(Duration::from_millis(5)),
        ));
        let fs2 = Arc::clone(&fs);
        let h = std::thread::spawn(move || {
            let result =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fs2.park_hung(1)));
            let payload = result.expect_err("park must not return");
            payload
                .downcast_ref::<PoisonedWorld>()
                .expect("poisoned-world payload")
                .rank
        });
        std::thread::sleep(Duration::from_millis(20));
        fs.mark_failed(1);
        fs.poison(1);
        assert_eq!(h.join().unwrap(), 1);
    }

    #[test]
    fn error_and_payload_format() {
        let e = CommError::RankFailed { rank: 3 };
        assert!(e.to_string().contains("rank 3"));
        let p = PoisonedWorld { rank: 2 };
        assert!(p.to_string().contains("rank 2"));
        assert_eq!(RankFault::Hang.to_string(), "hang");
    }
}
