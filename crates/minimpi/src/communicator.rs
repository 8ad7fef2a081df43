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

use std::sync::Arc;

use bytes::Bytes;

use crate::datatype::{from_bytes, reduce_vecs, to_bytes, MpiReduce, MpiType, ReduceOp};
use crate::failure::RankFault;
use crate::p2p::{Message, NetworkStats, Status, Tag};
use crate::request::Request;

/// An MPI-like communicator: p2p messaging, collectives, communicator
/// management, and a rank-membership/failure surface.
///
/// Blocking operations on a *poisoned* world (a rank failed, world not
/// elastic) panic with a [`crate::failure::PoisonedWorld`] payload rather
/// than waiting forever; the world supervisor converts that into
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

    // ------------------------------------------------------------------
    // Point-to-point (provided)
    // ------------------------------------------------------------------

    /// Blocking standard send (eager: buffers and returns immediately).
    fn send<T: MpiType>(&self, buf: &[T], dest: usize, tag: Tag) {
        self.deposit(dest, vec![message(self, tag, to_bytes(buf))]);
    }

    /// Blocking receive matching `(src, tag)` (`None` = wildcard).
    fn recv<T: MpiType>(&self, src: Option<usize>, tag: Option<Tag>) -> (Vec<T>, Status) {
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

    /// Sends several messages to `dest` as one modeled wire transfer.
    fn send_batch<T: MpiType>(&self, bufs: &[Vec<T>], dest: usize, tag: Tag) {
        let msgs: Vec<Message> = bufs
            .iter()
            .map(|b| message(self, tag, to_bytes(b)))
            .collect();
        self.deposit(dest, msgs);
    }

    /// [`Communicator::send_batch`] for already-encoded payloads.
    fn send_batch_raw(&self, bufs: Vec<Bytes>, dest: usize, tag: Tag) {
        let msgs: Vec<Message> = bufs
            .into_iter()
            .map(|data| message(self, tag, data))
            .collect();
        self.deposit(dest, msgs);
    }

    /// Nonblocking send; completes immediately (eager buffering).
    fn isend<T: MpiType>(&self, buf: &[T], dest: usize, tag: Tag) -> Request<T> {
        self.send(buf, dest, tag);
        Request::send(dest, tag)
    }

    /// Nonblocking receive; the matching happens at wait time.
    fn irecv<T: MpiType>(&self, src: Option<usize>, tag: Option<Tag>) -> Request<T> {
        Request::recv(src, tag)
    }

    /// Completes a request. Send requests yield `None`; receive requests
    /// block until their message arrives and yield the payload.
    fn wait<T: MpiType>(&self, request: Request<T>) -> Option<(Vec<T>, Status)> {
        match request {
            Request::Send { .. } => None,
            Request::Recv { src, tag } => Some(self.recv(src, tag)),
        }
    }

    /// Completes a batch of requests in order (`MPI_Waitall`).
    fn waitall<T: MpiType>(&self, requests: Vec<Request<T>>) -> Vec<Option<(Vec<T>, Status)>> {
        requests.into_iter().map(|r| self.wait(r)).collect()
    }

    // ------------------------------------------------------------------
    // Collectives (provided)
    // ------------------------------------------------------------------

    /// Synchronizes all ranks of the communicator (`MPI_Barrier`).
    fn barrier(&self) {
        let _ = self.exchange(Vec::new());
    }

    /// Broadcast from `root` (`MPI_Bcast`).
    fn bcast<T: MpiType>(&self, data: &[T], root: usize) -> Vec<T> {
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
        let snap = self.exchange(vec![to_bytes(contrib)]);
        if self.rank() != root {
            return None;
        }
        Some(fold(&snap, op))
    }

    /// Reduction to all ranks (`MPI_Allreduce`).
    fn allreduce<T: MpiReduce>(&self, contrib: &[T], op: ReduceOp) -> Vec<T> {
        let snap = self.exchange(vec![to_bytes(contrib)]);
        fold(&snap, op)
    }

    /// Personalized all-to-all exchange (`MPI_Alltoall(v)`).
    fn alltoall<T: MpiType>(&self, sends: &[Vec<T>]) -> Vec<Vec<T>> {
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
        let snap = self.exchange(vec![to_bytes(contrib)]);
        if self.rank() != root {
            return None;
        }
        Some(snap.iter().map(|slot| from_bytes(&slot[0])).collect())
    }

    /// Gather to all ranks (`MPI_Allgather`).
    fn allgather<T: MpiType>(&self, contrib: &[T]) -> Vec<Vec<T>> {
        let snap = self.exchange(vec![to_bytes(contrib)]);
        snap.iter().map(|slot| from_bytes(&slot[0])).collect()
    }

    /// Scatter from `root` (`MPI_Scatter`).
    fn scatter<T: MpiType>(&self, chunks: Option<&[Vec<T>]>, root: usize) -> Vec<T> {
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
        let msg = message(self, tag, to_bytes(buf));
        unpack(self.deposit_take(dest, vec![msg], src, Some(tag)))
    }

    /// Inclusive prefix reduction (`MPI_Scan`).
    fn scan<T: MpiReduce>(&self, contrib: &[T], op: ReduceOp) -> Vec<T> {
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
        self.split(0, self.rank() as i64)
    }

    /// Splits the communicator by `color` (`MPI_Comm_split`): ranks with
    /// the same color form a new communicator, ordered by `(key, rank)`.
    /// Every member must call `split` the same number of times in the
    /// same order.
    fn split(&self, color: i64, key: i64) -> Self {
        let seq = self.next_split_seq();
        // Share (color, key) so each rank can compute the same membership.
        let all: Vec<Vec<i64>> = self.allgather(&[color, key]);
        let mut members: Vec<(i64, usize)> = all
            .iter()
            .enumerate()
            .filter(|(_, ck)| ck[0] == color)
            .map(|(r, ck)| (ck[1], r))
            .collect();
        members.sort();
        let world_members: Vec<usize> = members.iter().map(|&(_, r)| self.world_rank(r)).collect();
        let my_new_rank = members
            .iter()
            .position(|&(_, r)| r == self.rank())
            .expect("caller must be a member of its own color group");
        let me = self.world_rank(self.rank());
        let sub = self.register_split(seq, color, world_members, my_new_rank);
        debug_assert_eq!(sub.world_rank(sub.rank()), me, "split members disagree");
        sub
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
