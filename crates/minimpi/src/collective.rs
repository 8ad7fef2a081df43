//! Collective rendezvous board.
//!
//! All collectives are built on one primitive: a generation-counted
//! *exchange* where every member of a communicator deposits a list of byte
//! buffers and receives a snapshot of everyone's deposits once all have
//! arrived. The rendezvous has one phase: the last arriver publishes the
//! snapshot and opens the next generation in the same step, so a member
//! parks at most once per collective and the board can be reused at once
//! (why one stored snapshot is enough is argued at [`Board::exchange`]).

use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};

use crate::failure::FailureState;

/// Shared rendezvous state for one communicator.
#[derive(Debug)]
pub struct Board {
    size: usize,
    state: Mutex<State>,
    cv: Condvar,
    /// The owning world's failure state (detached when standalone).
    failure: Arc<FailureState>,
    /// Participant-local rank → world rank (empty = identity), so the
    /// failure bookkeeping always speaks world ranks.
    members: Vec<usize>,
}

#[derive(Debug)]
struct State {
    generation: u64,
    arrived: usize,
    slots: Vec<Vec<Bytes>>,
    /// Deposits of the last completed generation.
    snapshot: Arc<Vec<Vec<Bytes>>>,
}

impl Board {
    /// Creates a standalone board for `size` participants (no failure
    /// detection).
    pub fn new(size: usize) -> Self {
        Self::with_failure(size, Arc::new(FailureState::detached()))
    }

    /// Creates a board wired to a world's failure state so blocked
    /// participants abort (instead of hanging) once the world poisons.
    pub fn with_failure(size: usize, failure: Arc<FailureState>) -> Self {
        Self::with_members(size, Vec::new(), failure)
    }

    /// [`Board::with_failure`] for a sub-communicator whose local ranks
    /// map to world ranks through `members`.
    pub fn with_members(size: usize, members: Vec<usize>, failure: Arc<FailureState>) -> Self {
        assert!(size >= 1, "a communicator needs at least one member");
        Board {
            size,
            state: Mutex::new(State {
                generation: 0,
                arrived: 0,
                slots: vec![Vec::new(); size],
                snapshot: Arc::default(),
            }),
            cv: Condvar::new(),
            failure,
            members,
        }
    }

    /// Number of participants.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Wakes every blocked participant so it can re-check the world's
    /// poison flag (called by the world after a rank failure).
    pub fn wake_all(&self) {
        self.cv.notify_all();
    }

    /// One iteration of a poison-aware blocking wait: aborts on poison,
    /// waits (timed when heartbeat detection is armed), and runs the
    /// stall scan on expiry. `rank` is participant-local; the failure
    /// bookkeeping uses its world rank.
    fn wait_step(&self, rank: usize, st: &mut parking_lot::MutexGuard<'_, State>) {
        self.failure.abort_if_poisoned();
        let world = self.members.get(rank).copied().unwrap_or(rank);
        match self.failure.wait_budget() {
            None => self.cv.wait(st),
            Some(budget) => {
                self.failure.begin_wait(world);
                let timed_out = self.cv.wait_for(st, budget).timed_out();
                self.failure.end_wait(world);
                if timed_out {
                    self.failure.suspect_stall(world);
                }
            }
        }
    }

    /// Deposits `mine` as participant `rank`, blocks until every
    /// participant of this generation has deposited, and returns the
    /// snapshot of all deposits (indexed by rank).
    ///
    /// All participants must call `exchange` the same number of times in
    /// the same order — the standard MPI requirement for collectives.
    ///
    /// The last arriver of generation g stores g's snapshot and bumps the
    /// generation; the others wait for the bump and take what is stored.
    /// One stored snapshot is enough: generation g + 1 completes only when
    /// every participant has deposited into it, and a waiter of g does so
    /// only after it left here with g's snapshot — so nothing overwrites
    /// the store, or bumps the generation twice, while anyone waits on g.
    /// A fast rank may deposit into g + 1 meanwhile: the bump emptied g's
    /// slots.
    ///
    /// The last arriver wakes only when `size > 1`. Every other member
    /// holds the lock from its deposit until its condvar wait releases it
    /// and leaves only after the bump, so at the bump all are parked (or,
    /// back from a timed or spurious wake, queued on the lock); one member
    /// has none to wake.
    pub fn exchange(&self, rank: usize, mine: Vec<Bytes>) -> Arc<Vec<Vec<Bytes>>> {
        assert!(rank < self.size, "rank {rank} out of range");
        self.failure.abort_if_poisoned();
        let mut st = self.state.lock();
        let my_gen = st.generation;
        st.slots[rank] = mine;
        st.arrived += 1;
        if st.arrived < self.size {
            while st.generation == my_gen {
                self.wait_step(rank, &mut st);
            }
            return Arc::clone(&st.snapshot);
        }
        let vals: Vec<Vec<Bytes>> = st.slots.iter_mut().map(std::mem::take).collect();
        let snap = Arc::new(vals);
        st.snapshot = Arc::clone(&snap);
        st.arrived = 0;
        st.generation += 1;
        // Unlock, then wake: a waiter woken into the held lock parks again.
        drop(st);
        if self.size > 1 {
            self.cv.notify_all();
        }
        snap
    }

    /// Barrier: an exchange with empty payloads.
    pub fn barrier(&self, rank: usize) {
        let _ = self.exchange(rank, Vec::new());
    }

    /// Deposits in the open generation. Each depositor holds the lock
    /// until its condvar wait releases it, so each one counted is parked.
    #[cfg(test)]
    pub(crate) fn arrived(&self) -> usize {
        self.state.lock().arrived
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn payload(rank: usize) -> Vec<Bytes> {
        vec![Bytes::from(vec![rank as u8])]
    }

    #[test]
    fn exchange_collects_all_deposits() {
        let board = Arc::new(Board::new(4));
        std::thread::scope(|s| {
            for rank in 0..4 {
                let board = Arc::clone(&board);
                s.spawn(move || {
                    let snap = board.exchange(rank, payload(rank));
                    for (i, slot) in snap.iter().enumerate() {
                        assert_eq!(slot[0][0] as usize, i);
                    }
                });
            }
        });
    }

    /// Skewed ranks on the one-phase board: rank 0 goes straight back in
    /// and deposits into generation g + 1 while rank 3, which yields a
    /// seeded 0-3 times after every wake-up, may not yet have read g's
    /// snapshot — what the departure phase this board once had was for.
    #[test]
    fn generations_do_not_mix() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        const RANKS: usize = 4;
        const ROUNDS: u32 = 10_000;
        let board = Board::new(RANKS);
        std::thread::scope(|s| {
            for rank in 0..RANKS {
                let board = &board;
                s.spawn(move || {
                    let mut skew = SmallRng::seed_from_u64(18);
                    for round in 0..ROUNDS {
                        let mut mine = vec![rank as u8];
                        mine.extend_from_slice(&round.to_le_bytes());
                        let snap = board.exchange(rank, vec![Bytes::from(mine)]);
                        assert_eq!(snap.len(), RANKS);
                        for (i, slot) in snap.iter().enumerate() {
                            assert_eq!(slot[0][0] as usize, i);
                            assert_eq!(slot[0][1..], round.to_le_bytes(), "generation mixed");
                        }
                        if rank == RANKS - 1 {
                            for _ in 0..skew.gen_range(0..4) {
                                std::thread::yield_now();
                            }
                        }
                    }
                });
            }
        });
    }

    /// A waiter parked in a generation that will never complete leaves
    /// with `PoisonedWorld` once the world poisons and `wake_all` runs.
    #[test]
    fn poison_releases_a_parked_waiter() {
        use crate::failure::PoisonedWorld;
        let failure = Arc::new(FailureState::new(2));
        let board = Board::with_failure(2, Arc::clone(&failure));
        std::thread::scope(|s| {
            let waiter = s.spawn(|| board.exchange(0, payload(0)));
            while board.arrived() == 0 {
                std::thread::yield_now();
            }
            failure.poison(1);
            board.wake_all();
            let payload = waiter.join().expect_err("the generation cannot complete");
            let poisoned = payload.downcast_ref::<PoisonedWorld>();
            assert_eq!(poisoned.map(|p| p.rank), Some(1));
        });
        // Its deposit stays behind; the generation never moved.
        let st = board.state.lock();
        assert_eq!((st.generation, st.arrived), (0, 1));
    }

    #[test]
    fn barrier_synchronizes() {
        let board = Arc::new(Board::new(4));
        let counter = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for rank in 0..4 {
                let board = Arc::clone(&board);
                let counter = Arc::clone(&counter);
                s.spawn(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                    board.barrier(rank);
                    // After the barrier, everyone must have incremented.
                    assert_eq!(counter.load(Ordering::SeqCst), 4);
                });
            }
        });
    }

    #[test]
    fn single_member_board_never_blocks() {
        let board = Board::new(1);
        for _ in 0..10 {
            let snap = board.exchange(0, payload(0));
            assert_eq!(snap.len(), 1);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rank_panics() {
        let board = Board::new(2);
        board.barrier(5);
    }
}
