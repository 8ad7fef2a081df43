//! The backend-independent communicator abstraction.
//!
//! A backend supplies a small set of *primitives* — identity, mailbox
//! deposit/take, the collective rendezvous exchange, split registration,
//! and a membership/failure surface — and the trait provides the whole
//! MPI-like call surface (send/recv, nonblocking requests, every
//! collective, `dup`/`split`) generically on top. The in-process threads
//! backend ([`crate::Comm`]) and the multi-process socket backend
//! ([`crate::socket::SocketComm`]) share all op semantics this way: one
//! implementation of `allreduce`, two transports under it.
//!
//! Every provided MPI call first reports itself, as an [`MpiCall`], to
//! the one hook [`Communicator::intercept`], and from then on uses only
//! primitives. A wrapper that overrides the hook and forwards the
//! primitives sees each call exactly once — the PMPI profiling interface
//! as a provided trait method.

use std::sync::Arc;

use bytes::Bytes;

use crate::datatype::{from_bytes, reduce_vecs, to_bytes, MpiReduce, MpiType, ReduceOp};
use crate::failure::RankFault;
use crate::p2p::{Message, NetworkStats, Status, Tag};
use crate::request::Request;

/// One call of the instrumented MPI surface, as [`Communicator::intercept`]
/// sees it: which function, plus the payload a tracing runtime records
/// with it (the peer for point-to-point calls, the root for rooted
/// collectives, the operation for reductions, the color for a split).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MpiCall {
    /// `MPI_Send` to a destination rank.
    Send(usize),
    /// `MPI_Recv` from a source rank, `None` for `MPI_ANY_SOURCE`.
    Recv(Option<usize>),
    /// `MPI_Isend` to a destination rank.
    Isend(usize),
    /// `MPI_Irecv` from a source rank, `None` for `MPI_ANY_SOURCE`.
    Irecv(Option<usize>),
    /// `MPI_Wait`.
    Wait,
    /// `MPI_Waitall`.
    Waitall,
    /// `MPI_Barrier`.
    Barrier,
    /// `MPI_Bcast` from a root rank.
    Bcast(usize),
    /// `MPI_Reduce` with an operation (recorded by it, not by the root).
    Reduce(ReduceOp),
    /// `MPI_Allreduce` with an operation.
    Allreduce(ReduceOp),
    /// `MPI_Alltoall`.
    Alltoall,
    /// `MPI_Gather` to a root rank.
    Gather(usize),
    /// `MPI_Allgather`.
    Allgather,
    /// `MPI_Scatter` from a root rank.
    Scatter(usize),
    /// `MPI_Sendrecv` whose send half goes to a destination rank.
    Sendrecv(usize),
    /// `MPI_Scan` with an operation.
    Scan(ReduceOp),
    /// `MPI_Reduce_scatter` with an operation.
    ReduceScatter(ReduceOp),
    /// `MPI_Comm_dup`.
    CommDup,
    /// `MPI_Comm_split` with the caller's color.
    CommSplit(i64),
}

impl MpiCall {
    /// The MPI function name.
    pub fn name(self) -> &'static str {
        match self {
            MpiCall::Send(_) => "MPI_Send",
            MpiCall::Recv(_) => "MPI_Recv",
            MpiCall::Isend(_) => "MPI_Isend",
            MpiCall::Irecv(_) => "MPI_Irecv",
            MpiCall::Wait => "MPI_Wait",
            MpiCall::Waitall => "MPI_Waitall",
            MpiCall::Barrier => "MPI_Barrier",
            MpiCall::Bcast(_) => "MPI_Bcast",
            MpiCall::Reduce(_) => "MPI_Reduce",
            MpiCall::Allreduce(_) => "MPI_Allreduce",
            MpiCall::Alltoall => "MPI_Alltoall",
            MpiCall::Gather(_) => "MPI_Gather",
            MpiCall::Allgather => "MPI_Allgather",
            MpiCall::Scatter(_) => "MPI_Scatter",
            MpiCall::Sendrecv(_) => "MPI_Sendrecv",
            MpiCall::Scan(_) => "MPI_Scan",
            MpiCall::ReduceScatter(_) => "MPI_Reduce_scatter",
            MpiCall::CommDup => "MPI_Comm_dup",
            MpiCall::CommSplit(_) => "MPI_Comm_split",
        }
    }

    /// The payload as an event payload: a rank, `-1` for any source,
    /// [`ReduceOp::code`], or the split color.
    pub fn payload(self) -> Option<i64> {
        match self {
            MpiCall::Send(rank)
            | MpiCall::Isend(rank)
            | MpiCall::Sendrecv(rank)
            | MpiCall::Bcast(rank)
            | MpiCall::Gather(rank)
            | MpiCall::Scatter(rank) => Some(rank as i64),
            MpiCall::Recv(src) | MpiCall::Irecv(src) => Some(src.map_or(-1, |s| s as i64)),
            MpiCall::Reduce(op)
            | MpiCall::Allreduce(op)
            | MpiCall::Scan(op)
            | MpiCall::ReduceScatter(op) => Some(op.code()),
            MpiCall::CommSplit(color) => Some(color),
            MpiCall::Wait
            | MpiCall::Waitall
            | MpiCall::Barrier
            | MpiCall::Alltoall
            | MpiCall::Allgather
            | MpiCall::CommDup => None,
        }
    }

    /// Whether the call is a blocking synchronization point: a completion
    /// or a collective that waits for its peers.
    pub fn is_blocking_sync(self) -> bool {
        matches!(
            self,
            MpiCall::Wait
                | MpiCall::Waitall
                | MpiCall::Barrier
                | MpiCall::Bcast(_)
                | MpiCall::Reduce(_)
                | MpiCall::Allreduce(_)
                | MpiCall::Alltoall
                | MpiCall::Gather(_)
                | MpiCall::Allgather
                | MpiCall::Scatter(_)
                | MpiCall::Scan(_)
                | MpiCall::ReduceScatter(_)
        )
    }
}

/// An MPI-like communicator: p2p messaging, collectives, communicator
/// management, and a rank-membership/failure surface.
///
/// Blocking operations on a *poisoned* world (a rank failed, world not
/// elastic) panic with a [`crate::failure::PoisonedWorld`] payload rather
/// than waiting forever; [`crate::World::run_result`] converts that into
/// [`crate::failure::CommError::RankFailed`].
pub trait Communicator: Sized {
    // ------------------------------------------------------------------
    // Identity
    // ------------------------------------------------------------------

    /// This rank's index within the communicator.
    fn rank(&self) -> usize;

    /// Number of ranks in the communicator.
    fn size(&self) -> usize;

    /// Stable identifier of the communicator (0 = world).
    fn id(&self) -> u64;

    /// World rank of a communicator-local rank.
    fn world_rank(&self, local: usize) -> usize;

    /// How many times this rank has been replaced after a failure
    /// (0 = first spawn).
    fn incarnation(&self) -> u64 {
        0
    }

    // ------------------------------------------------------------------
    // Transport primitives (backend-supplied)
    // ------------------------------------------------------------------

    /// Routes pre-built messages to communicator-local rank `dest` as one
    /// modeled wire transfer.
    fn deposit(&self, dest: usize, msgs: Vec<Message>);

    /// Blocks until a message matching `(src, tag)` on this communicator
    /// arrives at this rank, and removes it.
    fn take(&self, src: Option<usize>, tag: Option<Tag>) -> Message;

    /// [`Communicator::deposit`] to `dest`, then [`Communicator::take`]
    /// matching `(src, tag)` — the two halves of a `sendrecv` as one
    /// primitive, so that a backend with a wire between the rank and its
    /// mailbox can make them one round trip.
    fn deposit_take(
        &self,
        dest: usize,
        msgs: Vec<Message>,
        src: Option<usize>,
        tag: Option<Tag>,
    ) -> Message {
        self.deposit(dest, msgs);
        self.take(src, tag)
    }

    /// Nonblocking [`Communicator::take`].
    fn try_take(&self, src: Option<usize>, tag: Option<Tag>) -> Option<Message>;

    /// Whether a matching message is queued (`MPI_Iprobe`).
    fn probe(&self, src: Option<usize>, tag: Option<Tag>) -> bool;

    /// The collective rendezvous: deposits `mine`, blocks until every
    /// rank of the communicator has deposited, returns everyone's
    /// deposits indexed by rank.
    fn exchange(&self, mine: Vec<Bytes>) -> Arc<Vec<Vec<Bytes>>>;

    /// Next split sequence number on this handle (each rank counts its
    /// own split calls; equal sequences rendezvous).
    fn next_split_seq(&self) -> u64;

    /// Registers (or joins) the sub-communicator `(parent, seq, color)`
    /// whose members (world ranks, in new-rank order) are `members`, and
    /// returns a handle positioned at `my_rank` within it.
    fn register_split(&self, seq: u64, color: i64, members: Vec<usize>, my_rank: usize) -> Self;

    /// Network counters of this rank's incoming mailbox.
    fn network_stats(&self) -> NetworkStats;

    // ------------------------------------------------------------------
    // Membership / failure surface (backend-supplied)
    // ------------------------------------------------------------------

    /// The rank whose failure poisoned the world, if any.
    fn poisoned(&self) -> Option<usize>;

    /// Rank failures detected in this world so far.
    fn failures_detected(&self) -> u64;

    /// Records liveness of this rank for heartbeat-based hang detection.
    /// Hosts with long communication-free stretches (e.g. a recording
    /// runtime processing local events) should call this periodically.
    fn heartbeat(&self) {}

    /// Executes an injected rank fault and never returns: `Panic` unwinds,
    /// `Hang` parks silently until detected, `Disconnect` marks this rank
    /// failed and vanishes.
    fn fail_self(&self, fault: RankFault) -> !;

    /// The interception hook: every provided MPI call below calls it
    /// exactly once, on entry, before any primitive. The default does
    /// nothing. [`Communicator::try_recv`] and [`Communicator::probe`]
    /// are transport helpers, not instrumented calls, and do not call it.
    #[inline]
    fn intercept(&self, _call: MpiCall) {}

    // ------------------------------------------------------------------
    // Point-to-point (provided)
    // ------------------------------------------------------------------

    /// Blocking standard send (eager: buffers and returns immediately).
    fn send<T: MpiType>(&self, buf: &[T], dest: usize, tag: Tag) {
        self.intercept(MpiCall::Send(dest));
        self.deposit(dest, vec![message(self, tag, to_bytes(buf))]);
    }

    /// Blocking receive matching `(src, tag)` (`None` = wildcard).
    fn recv<T: MpiType>(&self, src: Option<usize>, tag: Option<Tag>) -> (Vec<T>, Status) {
        self.intercept(MpiCall::Recv(src));
        unpack(self.take(src, tag))
    }

    /// Nonblocking receive if a matching message is already queued.
    fn try_recv<T: MpiType>(
        &self,
        src: Option<usize>,
        tag: Option<Tag>,
    ) -> Option<(Vec<T>, Status)> {
        self.try_take(src, tag).map(unpack)
    }

    /// Nonblocking send; completes immediately (eager buffering).
    fn isend<T: MpiType>(&self, buf: &[T], dest: usize, tag: Tag) -> Request<T> {
        self.intercept(MpiCall::Isend(dest));
        self.deposit(dest, vec![message(self, tag, to_bytes(buf))]);
        Request::send(dest, tag)
    }

    /// Nonblocking receive; the matching happens at wait time.
    fn irecv<T: MpiType>(&self, src: Option<usize>, tag: Option<Tag>) -> Request<T> {
        self.intercept(MpiCall::Irecv(src));
        Request::recv(src, tag)
    }

    /// Completes a request. Send requests yield `None`; receive requests
    /// block until their message arrives and yield the payload.
    fn wait<T: MpiType>(&self, request: Request<T>) -> Option<(Vec<T>, Status)> {
        self.intercept(MpiCall::Wait);
        complete(self, request)
    }

    /// Completes a batch of requests in order (`MPI_Waitall`).
    fn waitall<T: MpiType>(&self, requests: Vec<Request<T>>) -> Vec<Option<(Vec<T>, Status)>> {
        self.intercept(MpiCall::Waitall);
        requests.into_iter().map(|r| complete(self, r)).collect()
    }

    // ------------------------------------------------------------------
    // Collectives (provided)
    // ------------------------------------------------------------------

    /// Synchronizes all ranks of the communicator (`MPI_Barrier`).
    fn barrier(&self) {
        self.intercept(MpiCall::Barrier);
        let _ = self.exchange(Vec::new());
    }

    /// Broadcast from `root` (`MPI_Bcast`).
    fn bcast<T: MpiType>(&self, data: &[T], root: usize) -> Vec<T> {
        self.intercept(MpiCall::Bcast(root));
        let mine = if self.rank() == root {
            vec![to_bytes(data)]
        } else {
            Vec::new()
        };
        let snap = self.exchange(mine);
        from_bytes(&snap[root][0])
    }

    /// Reduction to `root` (`MPI_Reduce`): returns `Some` on the root.
    fn reduce<T: MpiReduce>(&self, contrib: &[T], op: ReduceOp, root: usize) -> Option<Vec<T>> {
        self.intercept(MpiCall::Reduce(op));
        let snap = self.exchange(vec![to_bytes(contrib)]);
        if self.rank() != root {
            return None;
        }
        Some(fold(&snap, op))
    }

    /// Reduction to all ranks (`MPI_Allreduce`).
    fn allreduce<T: MpiReduce>(&self, contrib: &[T], op: ReduceOp) -> Vec<T> {
        self.intercept(MpiCall::Allreduce(op));
        let snap = self.exchange(vec![to_bytes(contrib)]);
        fold(&snap, op)
    }

    /// Personalized all-to-all exchange (`MPI_Alltoall(v)`).
    fn alltoall<T: MpiType>(&self, sends: &[Vec<T>]) -> Vec<Vec<T>> {
        self.intercept(MpiCall::Alltoall);
        assert_eq!(
            sends.len(),
            self.size(),
            "alltoall needs one send buffer per rank"
        );
        let mine: Vec<Bytes> = sends.iter().map(|s| to_bytes(s)).collect();
        let snap = self.exchange(mine);
        (0..self.size())
            .map(|src| from_bytes(&snap[src][self.rank()]))
            .collect()
    }

    /// Gather to `root` (`MPI_Gather`): `Some(per-rank data)` on the root.
    fn gather<T: MpiType>(&self, contrib: &[T], root: usize) -> Option<Vec<Vec<T>>> {
        self.intercept(MpiCall::Gather(root));
        let snap = self.exchange(vec![to_bytes(contrib)]);
        if self.rank() != root {
            return None;
        }
        Some(snap.iter().map(|slot| from_bytes(&slot[0])).collect())
    }

    /// Gather to all ranks (`MPI_Allgather`).
    fn allgather<T: MpiType>(&self, contrib: &[T]) -> Vec<Vec<T>> {
        self.intercept(MpiCall::Allgather);
        gather_all(self, contrib)
    }

    /// Scatter from `root` (`MPI_Scatter`).
    fn scatter<T: MpiType>(&self, chunks: Option<&[Vec<T>]>, root: usize) -> Vec<T> {
        self.intercept(MpiCall::Scatter(root));
        let mine = if self.rank() == root {
            let chunks = chunks.expect("root must provide chunks");
            assert_eq!(chunks.len(), self.size(), "one chunk per rank");
            chunks.iter().map(|c| to_bytes(c)).collect()
        } else {
            Vec::new()
        };
        let snap = self.exchange(mine);
        from_bytes(&snap[root][self.rank()])
    }

    /// Combined send+receive (`MPI_Sendrecv`). Deadlock-free because
    /// sends are eager.
    fn sendrecv<T: MpiType>(
        &self,
        buf: &[T],
        dest: usize,
        src: Option<usize>,
        tag: Tag,
    ) -> (Vec<T>, Status) {
        self.intercept(MpiCall::Sendrecv(dest));
        let msg = message(self, tag, to_bytes(buf));
        unpack(self.deposit_take(dest, vec![msg], src, Some(tag)))
    }

    /// Inclusive prefix reduction (`MPI_Scan`).
    fn scan<T: MpiReduce>(&self, contrib: &[T], op: ReduceOp) -> Vec<T> {
        self.intercept(MpiCall::Scan(op));
        let snap = self.exchange(vec![to_bytes(contrib)]);
        let mut acc: Option<Vec<T>> = None;
        for slot in snap.iter().take(self.rank() + 1) {
            let vals: Vec<T> = from_bytes(&slot[0]);
            acc = Some(match acc {
                None => vals,
                Some(a) => reduce_vecs(op, a, &vals),
            });
        }
        acc.expect("at least own contribution")
    }

    /// Reduce-scatter (`MPI_Reduce_scatter_block`-style).
    fn reduce_scatter<T: MpiReduce>(&self, chunks: &[Vec<T>], op: ReduceOp) -> Vec<T> {
        self.intercept(MpiCall::ReduceScatter(op));
        assert_eq!(chunks.len(), self.size(), "one chunk per rank");
        let mine: Vec<Bytes> = chunks.iter().map(|c| to_bytes(c)).collect();
        let snap = self.exchange(mine);
        let mut acc: Option<Vec<T>> = None;
        for slot in snap.iter() {
            let vals: Vec<T> = from_bytes(&slot[self.rank()]);
            acc = Some(match acc {
                None => vals,
                Some(a) => reduce_vecs(op, a, &vals),
            });
        }
        acc.expect("non-empty communicator")
    }

    // ------------------------------------------------------------------
    // Communicator management (provided)
    // ------------------------------------------------------------------

    /// Duplicates the communicator (`MPI_Comm_dup`): same members and
    /// ranks, separate message-matching space.
    fn dup(&self) -> Self {
        self.intercept(MpiCall::CommDup);
        split_by(self, 0, self.rank() as i64)
    }

    /// Splits the communicator by `color` (`MPI_Comm_split`): ranks with
    /// the same color form a new communicator, ordered by `(key, rank)`.
    /// Every member must call `split` the same number of times in the
    /// same order.
    fn split(&self, color: i64, key: i64) -> Self {
        self.intercept(MpiCall::CommSplit(color));
        split_by(self, color, key)
    }
}

/// The body of [`Communicator::split`], un-hooked so that `dup` reports
/// one call, not two.
fn split_by<C: Communicator>(comm: &C, color: i64, key: i64) -> C {
    let seq = comm.next_split_seq();
    // Share (color, key) so each rank can compute the same membership.
    let all: Vec<Vec<i64>> = gather_all(comm, &[color, key]);
    let mut members: Vec<(i64, usize)> = all
        .iter()
        .enumerate()
        .filter(|(_, ck)| ck[0] == color)
        .map(|(r, ck)| (ck[1], r))
        .collect();
    members.sort();
    let world_members: Vec<usize> = members.iter().map(|&(_, r)| comm.world_rank(r)).collect();
    let my_new_rank = members
        .iter()
        .position(|&(_, r)| r == comm.rank())
        .expect("caller must be a member of its own color group");
    let me = comm.world_rank(comm.rank());
    let sub = comm.register_split(seq, color, world_members, my_new_rank);
    debug_assert_eq!(sub.world_rank(sub.rank()), me, "split members disagree");
    sub
}

/// The body of [`Communicator::allgather`], un-hooked for `split`.
fn gather_all<C: Communicator, T: MpiType>(comm: &C, contrib: &[T]) -> Vec<Vec<T>> {
    let snap = comm.exchange(vec![to_bytes(contrib)]);
    snap.iter().map(|slot| from_bytes(&slot[0])).collect()
}

/// The body of [`Communicator::wait`], un-hooked for `waitall`.
fn complete<C: Communicator, T: MpiType>(
    comm: &C,
    request: Request<T>,
) -> Option<(Vec<T>, Status)> {
    match request {
        Request::Send { .. } => None,
        Request::Recv { src, tag } => Some(unpack(comm.take(src, tag))),
    }
}

/// `data` as a message from `comm`'s own rank on `comm`.
fn message<C: Communicator>(comm: &C, tag: Tag, data: Bytes) -> Message {
    Message {
        src: comm.rank(),
        tag,
        comm_id: comm.id(),
        data,
    }
}

/// A received message as the typed payload and its `MPI_Status`.
fn unpack<T: MpiType>(msg: Message) -> (Vec<T>, Status) {
    let status = Status {
        source: msg.src,
        tag: msg.tag,
        len: msg.data.len(),
    };
    (from_bytes(&msg.data), status)
}

/// Element-wise reduction over every rank's first slot.
fn fold<T: MpiReduce>(snap: &[Vec<Bytes>], op: ReduceOp) -> Vec<T> {
    let mut acc: Option<Vec<T>> = None;
    for slot in snap {
        let vals: Vec<T> = from_bytes(&slot[0]);
        acc = Some(match acc {
            None => vals,
            Some(a) => reduce_vecs(op, a, &vals),
        });
    }
    acc.expect("non-empty communicator")
}
