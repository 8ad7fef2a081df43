//! Worlds and the threads backend's communicator handle.
//!
//! A world's rendezvous state (`WorldShared`: mailboxes, boards, the
//! split registry, failure bookkeeping) lives here once. [`World`] drives
//! it with a thread per rank, rank 0 on the caller's; the socket hub hosts
//! the same state and drives it with one thread per connection.

use std::cell::Cell;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::collective::Board;
use crate::communicator::Communicator;
use crate::failure::{CommError, FailureState, PoisonedWorld, RankFault};
use crate::p2p::{Mailbox, Message, Tag};

/// Key identifying a sub-communicator produced by `split`: every
/// member computes the same `(parent id, split sequence number, color)`
/// triple and attaches to the same shared state.
type CommKey = (u64, u64, i64);

/// Process-wide state shared by all ranks.
#[derive(Debug)]
pub(crate) struct WorldShared {
    mailboxes: Vec<Mailbox>,
    registry: Mutex<CommRegistry>,
    pub(crate) failure: Arc<FailureState>,
    /// The world communicator's shared state (board + identity mapping),
    /// kept here so failure paths can wake its board too.
    world_comm: Arc<CommShared>,
}

impl WorldShared {
    /// State of a `size`-rank world; an `elastic` one marks failures but
    /// never poisons, so survivors wait for a replacement rank.
    pub(crate) fn new(size: usize, elastic: bool) -> Arc<Self> {
        assert!(size >= 1, "world size must be at least 1");
        let failure = Arc::new(FailureState::new(size));
        failure.set_elastic(elastic);
        let world_comm = Arc::new(CommShared {
            id: 0,
            board: Board::with_failure(size, Arc::clone(&failure)),
            members: (0..size).collect(),
        });
        Arc::new(WorldShared {
            mailboxes: (0..size)
                .map(|r| Mailbox::for_rank(r, Arc::clone(&failure)))
                .collect(),
            registry: Mutex::new(CommRegistry {
                next_id: 1,
                comms: HashMap::new(),
            }),
            failure,
            world_comm,
        })
    }

    /// Wakes every blocking primitive in the world so it re-checks the
    /// poison flag.
    pub(crate) fn wake_world(&self) {
        for mb in &self.mailboxes {
            mb.wake_all();
        }
        self.world_comm.board.wake_all();
        for c in self.registry.lock().comms.values() {
            c.board.wake_all();
        }
    }

    /// Marks `rank` failed and, unless the world is elastic, poisons it
    /// and wakes all blocked survivors.
    pub(crate) fn fail_rank(&self, rank: usize) {
        self.failure.mark_failed(rank);
        if !self.failure.is_elastic() {
            self.failure.poison(rank);
            self.wake_world();
        }
    }
}

#[derive(Debug)]
struct CommRegistry {
    next_id: u64,
    comms: HashMap<CommKey, Arc<CommShared>>,
}

/// Shared state of one communicator.
#[derive(Debug)]
struct CommShared {
    id: u64,
    board: Board,
    /// Communicator-local rank → world rank.
    members: Vec<usize>,
}

/// Failure counters of a completed world, returned by
/// [`World::run_elastic`] and by the socket hub's `serve`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ElasticWorldStats {
    /// Rank failures detected (by the rank itself, a hub's EOF or a heartbeat).
    pub failures_detected: u64,
    /// Replacement ranks admitted after a failure.
    pub ranks_replaced: u64,
}

/// Entry point: launches `n` ranks as threads.
pub struct World;

/// The first failure of a world: the failed rank and its panic payload.
type Failure = (usize, Box<dyn std::any::Any + Send>);

impl World {
    /// Runs `f` on `size` ranks (rank 0 on the calling thread, each other
    /// rank on a thread of its own) and returns the per-rank results in
    /// rank order. Panics in any rank propagate — and, since the world
    /// poisons on the first failure, blocked survivors abort instead of
    /// hanging forever.
    pub fn run<R, F>(size: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Comm) -> R + Send + Sync,
    {
        match Self::run_ranks(size, false, f).0 {
            Ok(results) => results,
            Err((_, payload)) => resume_unwind(payload),
        }
    }

    /// Fault-aware variant of [`World::run`]: a rank failure yields
    /// `Err(CommError::RankFailed)` (naming the first failed rank)
    /// instead of propagating the panic. No survivor is left hanging.
    pub fn run_result<R, F>(size: usize, f: F) -> Result<Vec<R>, CommError>
    where
        R: Send,
        F: Fn(Comm) -> R + Send + Sync,
    {
        let (results, failure, _) = Self::run_ranks(size, false, f);
        results.map_err(|(rank, _)| CommError::RankFailed {
            rank: failure.first_failed().unwrap_or(rank),
        })
    }

    /// Elastic variant: a failed rank is *replaced* — it reruns `f` in place
    /// with the next incarnation number (up to `size * 4` respawns across
    /// the world) while survivors keep blocking at the rendezvous until
    /// the replacement catches up. The closure observes replacement via
    /// the handle's `incarnation` (0 = first spawn) and is expected to resume
    /// from its durable journal rather than re-issuing completed
    /// communication. Exceeding the respawn budget fails the world.
    pub fn run_elastic<R, F>(size: usize, f: F) -> Result<(Vec<R>, ElasticWorldStats), CommError>
    where
        R: Send,
        F: Fn(Comm) -> R + Send + Sync,
    {
        let (results, failure, respawned) = Self::run_ranks(size, true, f);
        let stats = ElasticWorldStats {
            failures_detected: failure.detected(),
            ranks_replaced: respawned as u64,
        };
        results
            .map(|results| (results, stats))
            .map_err(|(rank, _)| CommError::RankFailed { rank })
    }

    /// Shared body of the entry points: ranks `1..size` on scoped threads,
    /// rank 0 on the caller's. Each rank catches its own panic and either
    /// reruns `f` in place (elastic, within the shared `size * 4` budget)
    /// or fails the world and records the first failure. Returns the
    /// results or that failure, the failure state, and the respawn count.
    fn run_ranks<R, F>(
        size: usize,
        elastic: bool,
        f: F,
    ) -> (Result<Vec<R>, Failure>, Arc<FailureState>, usize)
    where
        R: Send,
        F: Fn(Comm) -> R + Send + Sync,
    {
        let shared = WorldShared::new(size, elastic);
        let budget = if elastic { size * 4 } else { 0 };
        let respawns = AtomicUsize::new(budget);
        let primary = Mutex::new(None);
        let run_rank = |rank: usize| -> Option<R> {
            let mut incarnation = 0;
            loop {
                let comm = Comm::attach(&shared, rank, incarnation);
                let payload = match catch_unwind(AssertUnwindSafe(|| f(comm))) {
                    Ok(r) => return Some(r),
                    Err(payload) => payload,
                };
                // An abort induced by another rank's failure is not a failure.
                if payload
                    .downcast_ref::<PoisonedWorld>()
                    .is_some_and(|p| p.rank != rank)
                {
                    return None;
                }
                if elastic {
                    shared.failure.mark_failed(rank);
                    if respawns
                        .fetch_update(SeqCst, SeqCst, |n| n.checked_sub(1))
                        .is_ok()
                    {
                        shared.failure.clear_failed(rank);
                        incarnation += 1;
                        continue;
                    }
                }
                shared.fail_rank(rank);
                primary.lock().get_or_insert((rank, payload));
                return None;
            }
        };
        let results: Vec<Option<R>> = std::thread::scope(|s| {
            let run_rank = &run_rank;
            let others: Vec<_> = (1..size).map(|r| s.spawn(move || run_rank(r))).collect();
            let first = run_rank(0);
            let joined = others
                .into_iter()
                .map(|h| h.join().expect("ranks catch panics"));
            std::iter::once(first).chain(joined).collect()
        });
        let results = match primary.into_inner() {
            Some(failure) => Err(failure),
            None => Ok(results
                .into_iter()
                .map(|r| r.expect("rank finished without result or failure"))
                .collect()),
        };
        let respawned = budget - respawns.into_inner();
        (results, Arc::clone(&shared.failure), respawned)
    }
}

/// A communicator handle held by one rank (the `MPI_Comm` equivalent plus
/// the calling rank's identity). New handles come only from `split` and
/// `dup`; each rank drives its own.
///
/// The whole call surface (p2p, collectives, splitting) is the
/// backend-independent [`Communicator`] trait: import it to call anything.
#[derive(Debug)]
pub struct Comm {
    world: Arc<WorldShared>,
    shared: Arc<CommShared>,
    local_rank: usize,
    split_seq: Cell<u64>,
    /// 0 on first spawn; bumped per elastic replacement of this rank.
    incarnation: u64,
}

impl Comm {
    /// World-communicator handle of `rank` in `world`: what a rank thread
    /// of [`World`] holds, and what a hub connection drives on behalf of
    /// the rank process behind it.
    pub(crate) fn attach(world: &Arc<WorldShared>, rank: usize, incarnation: u64) -> Comm {
        Comm {
            world: Arc::clone(world),
            shared: Arc::clone(&world.world_comm),
            local_rank: rank,
            split_seq: Cell::new(0),
            incarnation,
        }
    }

    fn mailbox(&self) -> &Mailbox {
        &self.world.mailboxes[self.shared.members[self.local_rank]]
    }

    /// Stamps this rank's heartbeat (no-op unless detection is armed).
    fn beat(&self) {
        self.world
            .failure
            .beat(self.shared.members[self.local_rank]);
    }
}

impl Communicator for Comm {
    fn rank(&self) -> usize {
        self.local_rank
    }

    fn size(&self) -> usize {
        self.shared.members.len()
    }

    fn id(&self) -> u64 {
        self.shared.id
    }

    fn world_rank(&self, local: usize) -> usize {
        self.shared.members[local]
    }

    fn incarnation(&self) -> u64 {
        self.incarnation
    }

    fn deposit(&self, dest: usize, msgs: Vec<Message>) {
        self.beat();
        let world_dest = self.shared.members[dest];
        self.world.mailboxes[world_dest].deposit_batch(msgs);
    }

    fn take(&self, src: Option<usize>, tag: Option<Tag>) -> Message {
        self.beat();
        self.mailbox().take_matching(self.shared.id, src, tag)
    }

    fn try_take(&self, src: Option<usize>, tag: Option<Tag>) -> Option<Message> {
        self.beat();
        self.mailbox().try_take_matching(self.shared.id, src, tag)
    }

    fn probe(&self, src: Option<usize>, tag: Option<Tag>) -> bool {
        self.beat();
        self.mailbox().probe(self.shared.id, src, tag)
    }

    fn exchange(&self, mine: Vec<bytes::Bytes>) -> Arc<Vec<Vec<bytes::Bytes>>> {
        self.beat();
        self.shared.board.exchange(self.local_rank, mine)
    }

    fn next_split_seq(&self) -> u64 {
        let seq = self.split_seq.get();
        self.split_seq.set(seq + 1);
        seq
    }

    fn register_split(&self, seq: u64, color: i64, members: Vec<usize>, my_rank: usize) -> Comm {
        let comm_key: CommKey = (self.shared.id, seq, color);
        let shared = {
            let mut reg = self.world.registry.lock();
            if let Some(existing) = reg.comms.get(&comm_key) {
                Arc::clone(existing)
            } else {
                let id = reg.next_id;
                reg.next_id += 1;
                let created = Arc::new(CommShared {
                    id,
                    board: Board::with_members(
                        members.len(),
                        members.clone(),
                        Arc::clone(&self.world.failure),
                    ),
                    members: members.clone(),
                });
                reg.comms.insert(comm_key, Arc::clone(&created));
                created
            }
        };
        Comm {
            world: Arc::clone(&self.world),
            shared,
            local_rank: my_rank,
            split_seq: Cell::new(0),
            incarnation: self.incarnation,
        }
    }

    fn network_stats(&self) -> crate::p2p::NetworkStats {
        self.mailbox().network_stats()
    }

    fn poisoned(&self) -> Option<usize> {
        self.world.failure.poisoned()
    }

    fn failures_detected(&self) -> u64 {
        self.world.failure.detected()
    }

    fn heartbeat(&self) {
        self.beat();
    }

    fn fail_self(&self, fault: RankFault) -> ! {
        let me = self.shared.members[self.local_rank];
        match fault {
            RankFault::Panic => panic!("injected rank fault: panic at rank {me}"),
            RankFault::Hang => self.world.failure.park_hung(me),
            RankFault::Disconnect => {
                self.world.fail_rank(me);
                std::panic::panic_any(PoisonedWorld { rank: me });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::ReduceOp;

    #[test]
    fn ring_send_recv() {
        let out = World::run(4, |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(&[comm.rank() as u64], next, 0);
            let (data, status) = comm.recv::<u64>(Some(prev), Some(0));
            assert_eq!(status.source, prev);
            data[0]
        });
        assert_eq!(out, vec![3, 0, 1, 2]);
    }

    #[test]
    fn wildcard_receive() {
        let out = World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(&[42u64], 1, 7);
                0
            } else {
                let (data, status) = comm.recv::<u64>(None, None);
                assert_eq!(status.tag, 7);
                assert_eq!(status.source, 0);
                data[0]
            }
        });
        assert_eq!(out[1], 42);
    }

    #[test]
    fn isend_irecv_waitall() {
        let out = World::run(3, |comm| {
            let mut reqs = Vec::new();
            for peer in 0..comm.size() {
                if peer != comm.rank() {
                    reqs.push(comm.isend(&[comm.rank() as i64], peer, 1));
                    reqs.push(comm.irecv::<i64>(Some(peer), Some(1)));
                }
            }
            let results = comm.waitall(reqs);
            results
                .into_iter()
                .flatten()
                .map(|(data, _)| data[0])
                .sum::<i64>()
        });
        // Each rank receives the ids of the two other ranks.
        assert_eq!(out[0], 3);
        assert_eq!(out[1], 2);
        assert_eq!(out[2], 1);
    }

    #[test]
    fn bcast_from_each_root() {
        for root in 0..3 {
            let out = World::run(3, move |comm| {
                let data = if comm.rank() == root {
                    vec![root as u64 * 100]
                } else {
                    vec![0]
                };
                comm.bcast(&data, root)[0]
            });
            assert_eq!(out, vec![root as u64 * 100; 3]);
        }
    }

    #[test]
    fn allreduce_matches_sequential() {
        let out = World::run(5, |comm| {
            let contrib = [comm.rank() as f64, 1.0];
            comm.allreduce(&contrib, ReduceOp::Sum)
        });
        for v in out {
            assert_eq!(v, vec![0.0 + 1.0 + 2.0 + 3.0 + 4.0, 5.0]);
        }
    }

    #[test]
    fn reduce_only_root_gets_result() {
        let out = World::run(4, |comm| {
            comm.reduce(&[comm.rank() as i64 + 1], ReduceOp::Prod, 2)
        });
        assert!(out[0].is_none());
        assert_eq!(out[2].as_ref().unwrap()[0], 24);
    }

    #[test]
    fn alltoall_transposes() {
        let out = World::run(3, |comm| {
            let sends: Vec<Vec<u64>> = (0..comm.size())
                .map(|d| vec![(comm.rank() * 10 + d) as u64])
                .collect();
            comm.alltoall(&sends)
        });
        // Rank r receives s*10 + r from each sender s.
        for (r, recvd) in out.iter().enumerate() {
            for (s, v) in recvd.iter().enumerate() {
                assert_eq!(v[0], (s * 10 + r) as u64);
            }
        }
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let out = World::run(4, |comm| {
            let gathered = comm.gather(&[comm.rank() as u64], 0);
            let chunks: Option<Vec<Vec<u64>>> = gathered.map(|g| {
                g.into_iter()
                    .map(|mut v| {
                        v[0] *= 2;
                        v
                    })
                    .collect()
            });
            comm.scatter(chunks.as_deref(), 0)[0]
        });
        assert_eq!(out, vec![0, 2, 4, 6]);
    }

    #[test]
    fn allgather_collects_everything() {
        let out = World::run(3, |comm| comm.allgather(&[comm.rank() as u64 + 7]));
        for v in out {
            assert_eq!(v, vec![vec![7], vec![8], vec![9]]);
        }
    }

    #[test]
    fn split_into_row_communicators() {
        // 2x2 grid: split into rows; sum ranks within each row.
        let out = World::run(4, |comm| {
            let row = (comm.rank() / 2) as i64;
            let row_comm = comm.split(row, comm.rank() as i64);
            assert_eq!(row_comm.size(), 2);
            let total = row_comm.allreduce(&[comm.rank() as u64], ReduceOp::Sum);
            (row_comm.rank(), total[0])
        });
        assert_eq!(out[0], (0, 1));
        assert_eq!(out[1], (1, 1));
        assert_eq!(out[2], (0, 5));
        assert_eq!(out[3], (1, 5));
    }

    #[test]
    fn split_p2p_does_not_cross_communicators() {
        let out = World::run(4, |comm| {
            let color = (comm.rank() % 2) as i64;
            let sub = comm.split(color, comm.rank() as i64);
            // Ping within the sub-communicator (local ranks 0 <-> 1).
            if sub.rank() == 0 {
                sub.send(&[comm.rank() as u64], 1, 5);
                0
            } else {
                let (data, _) = sub.recv::<u64>(Some(0), Some(5));
                data[0]
            }
        });
        // Color 0 = world {0, 2}, color 1 = world {1, 3}: local rank 1 of
        // each sub-comm (world 2 and 3) receives its local rank 0's world
        // rank (0 and 1 respectively).
        assert_eq!(out[2], 0);
        assert_eq!(out[3], 1);
    }

    #[test]
    fn repeated_splits_get_distinct_comms() {
        let out = World::run(2, |comm| {
            let a = comm.split(0, 0);
            let b = comm.split(0, 0);
            assert_ne!(a.id(), b.id());
            a.barrier();
            b.barrier();
            comm.id()
        });
        assert_eq!(out, vec![0, 0]);
    }

    #[test]
    fn single_rank_world() {
        let out = World::run(1, |comm| {
            comm.barrier();
            let r = comm.allreduce(&[41u64], ReduceOp::Sum);
            comm.send(&[7u64], 0, 0); // self-send
            let (d, _) = comm.recv::<u64>(Some(0), Some(0));
            r[0] + d[0]
        });
        assert_eq!(out, vec![48]);
    }

    #[test]
    fn one_rank_world_runs_on_the_caller() {
        let caller = std::thread::current().id();
        assert_eq!(World::run(1, |_| std::thread::current().id()), [caller]);
    }

    #[test]
    fn rank_zero_runs_on_the_caller_and_the_others_apart() {
        let caller = std::thread::current().id();
        let ids = World::run(3, |comm| {
            comm.barrier();
            std::thread::current().id()
        });
        assert_eq!(ids[0], caller);
        assert!(ids[1] != caller && ids[2] != caller && ids[1] != ids[2]);
    }

    /// Rank 0 supervises itself like any other rank: its replacement runs
    /// in place, on the caller's thread.
    #[test]
    fn elastic_world_replaces_rank_zero_in_place() {
        let caller = std::thread::current().id();
        let (out, stats) = World::run_elastic(3, |comm| {
            if comm.rank() == 0 && comm.incarnation() == 0 {
                panic!("first incarnation of rank 0 dies");
            }
            comm.barrier();
            let total = comm.allreduce(&[comm.rank() as u64], ReduceOp::Sum);
            let on_caller = std::thread::current().id() == caller;
            (comm.incarnation(), total[0], on_caller)
        })
        .expect("elastic world recovers");
        assert_eq!(out, vec![(1, 3, true), (0, 3, false), (0, 3, false)]);
        assert_eq!(stats.failures_detected, 1);
        assert_eq!(stats.ranks_replaced, 1);
    }

    /// Rank 0, on the caller's thread, dies while every other rank is
    /// parked at a barrier: its own catch poisons and wakes them.
    #[test]
    fn rank_zero_failure_releases_a_parked_barrier() {
        let err = World::run_result(4, |comm| {
            if comm.rank() == 0 {
                while comm.shared.board.arrived() < 3 {
                    std::thread::yield_now();
                }
                panic!("rank 0 dies while ranks 1-3 wait at the barrier");
            }
            comm.barrier();
        });
        assert_eq!(err, Err(CommError::RankFailed { rank: 0 }));
    }

    #[test]
    fn try_recv_and_probe() {
        let out = World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.barrier();
                comm.send(&[9u64], 1, 3);
                comm.barrier();
                0
            } else {
                assert!(comm.try_recv::<u64>(Some(0), Some(3)).is_none());
                assert!(!comm.probe(Some(0), Some(3)));
                comm.barrier();
                comm.barrier();
                assert!(comm.probe(Some(0), Some(3)));
                comm.try_recv::<u64>(Some(0), Some(3)).unwrap().0[0]
            }
        });
        assert_eq!(out[1], 9);
    }
}

#[cfg(test)]
mod extended_api_tests {
    use super::*;
    use crate::datatype::ReduceOp;

    #[test]
    fn sendrecv_ring_shift() {
        let out = World::run(4, |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            let (data, status) = comm.sendrecv(&[comm.rank() as u64], next, Some(prev), 9);
            assert_eq!(status.source, prev);
            data[0]
        });
        assert_eq!(out, vec![3, 0, 1, 2]);
    }

    #[test]
    fn scan_prefix_sums() {
        let out = World::run(5, |comm| {
            comm.scan(&[comm.rank() as u64 + 1], ReduceOp::Sum)[0]
        });
        assert_eq!(out, vec![1, 3, 6, 10, 15]);
    }

    #[test]
    fn scan_with_min_op() {
        let out = World::run(4, |comm| {
            let v = [10i64 - comm.rank() as i64];
            comm.scan(&v, ReduceOp::Min)[0]
        });
        // Contributions 10, 9, 8, 7 -> prefix minima.
        assert_eq!(out, vec![10, 9, 8, 7]);
    }

    #[test]
    fn reduce_scatter_distributes_reductions() {
        let out = World::run(3, |comm| {
            // Rank r contributes chunk[d] = [r*10 + d].
            let chunks: Vec<Vec<u64>> = (0..comm.size())
                .map(|d| vec![(comm.rank() * 10 + d) as u64])
                .collect();
            comm.reduce_scatter(&chunks, ReduceOp::Sum)[0]
        });
        // Rank d receives sum over r of (r*10 + d) = 30 + 3d.
        assert_eq!(out, vec![30, 33, 36]);
    }

    #[test]
    fn dup_preserves_ranks_but_isolates_messages() {
        let out = World::run(3, |comm| {
            let dup = comm.dup();
            assert_eq!(dup.rank(), comm.rank());
            assert_eq!(dup.size(), comm.size());
            assert_ne!(dup.id(), comm.id());
            // A message on the dup is invisible to the original.
            if comm.rank() == 0 {
                dup.send(&[7u64], 1, 1);
                comm.send(&[8u64], 1, 1);
            }
            if comm.rank() == 1 {
                let (a, _) = comm.recv::<u64>(Some(0), Some(1));
                let (b, _) = dup.recv::<u64>(Some(0), Some(1));
                assert_eq!((a[0], b[0]), (8, 7));
            }
            comm.barrier();
            1
        });
        assert_eq!(out, vec![1, 1, 1]);
    }

    #[test]
    fn scan_matches_allreduce_on_last_rank() {
        let out = World::run(4, |comm| {
            let contrib = [comm.rank() as f64 + 0.5];
            let scan = comm.scan(&contrib, ReduceOp::Sum)[0];
            let all = comm.allreduce(&contrib, ReduceOp::Sum)[0];
            (scan, all)
        });
        let (scan_last, all_last) = out[3];
        assert_eq!(scan_last, all_last);
    }

    // ------------------------------------------------------------------
    // Failure model
    // ------------------------------------------------------------------

    /// Regression: a rank panicking used to leave peers blocked in
    /// `recv` forever. The poisoned world must wake and abort them.
    #[test]
    fn panicked_peer_aborts_blocked_recv() {
        let err = World::run_result(2, |comm| {
            if comm.rank() == 1 {
                panic!("rank 1 dies before sending");
            }
            // Would deadlock without poison propagation.
            let (data, _) = comm.recv::<u64>(Some(1), Some(0));
            data[0]
        });
        assert_eq!(err, Err(CommError::RankFailed { rank: 1 }));
    }

    /// Same regression for collectives: survivors parked at a barrier
    /// must abort when a peer dies before arriving.
    #[test]
    fn panicked_peer_aborts_blocked_barrier() {
        let err = World::run_result(4, |comm| {
            if comm.rank() == 2 {
                panic!("rank 2 dies before the barrier");
            }
            comm.barrier();
            comm.rank()
        });
        assert_eq!(err, Err(CommError::RankFailed { rank: 2 }));
    }

    /// `World::run` still propagates the original panic payload (and
    /// does not hang doing so).
    #[test]
    fn run_propagates_primary_panic() {
        let result = std::panic::catch_unwind(|| {
            World::run(2, |comm| {
                if comm.rank() == 0 {
                    panic!("boom");
                }
                comm.recv::<u64>(Some(0), Some(0)).0[0]
            })
        });
        let payload = result.expect_err("world must fail");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "boom");
    }

    #[test]
    fn fault_free_world_reports_zero_failures() {
        let (out, stats) = World::run_elastic(3, |comm| {
            comm.barrier();
            comm.allreduce(&[1u64], ReduceOp::Sum)[0]
        })
        .expect("fault-free world");
        assert_eq!(out, vec![3, 3, 3]);
        assert_eq!(stats, ElasticWorldStats::default());
    }

    /// An elastic world replaces a failed rank: the respawned
    /// incarnation reruns the closure, observes `incarnation() > 0`,
    /// and completes the rendezvous the first incarnation abandoned.
    #[test]
    fn elastic_world_replaces_failed_rank() {
        let (out, stats) = World::run_elastic(3, |comm| {
            if comm.rank() == 1 && comm.incarnation() == 0 {
                panic!("first incarnation of rank 1 dies");
            }
            comm.barrier();
            let total = comm.allreduce(&[comm.rank() as u64], ReduceOp::Sum);
            (comm.incarnation(), total[0])
        })
        .expect("elastic world recovers");
        assert_eq!(out[0], (0, 3));
        assert_eq!(out[1], (1, 3));
        assert_eq!(out[2], (0, 3));
        assert_eq!(stats.failures_detected, 1);
        assert_eq!(stats.ranks_replaced, 1);
    }

    /// Exceeding the respawn budget fails the world instead of
    /// respawning forever.
    #[test]
    fn elastic_budget_exhaustion_fails_world() {
        let err = World::run_elastic(1, |comm: Comm| -> u64 {
            let _ = comm.incarnation();
            panic!("every incarnation dies");
        });
        assert_eq!(err, Err(CommError::RankFailed { rank: 0 }));
    }
}
