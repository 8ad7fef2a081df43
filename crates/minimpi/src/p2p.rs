//! Point-to-point messaging: per-rank mailboxes with MPI-style
//! `(communicator, source, tag)` matching.
//!
//! Sends are eager and buffered (the sender never blocks); receives block
//! on a condition variable until a matching message arrives. Within one
//! `(source, tag)` pair, messages are matched in the order they were sent
//! (MPI's non-overtaking rule) because the mailbox is scanned
//! front-to-back and senders append at the back.

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;

use crate::failure::FailureState;

/// Message tag (application-chosen demultiplexing key).
pub type Tag = i32;

/// Wildcard source for [`crate::Communicator::recv`] (`MPI_ANY_SOURCE`).
pub const ANY_SOURCE: Option<usize> = None;

/// Wildcard tag for [`crate::Communicator::recv`] (`MPI_ANY_TAG`).
pub const ANY_TAG: Option<Tag> = None;

/// A buffered message.
#[derive(Debug, Clone)]
pub struct Message {
    /// World rank of the sender.
    pub src: usize,
    /// Application tag.
    pub tag: Tag,
    /// Communicator the message was sent on.
    pub comm_id: u64,
    /// Encoded payload.
    pub data: Bytes,
}

/// Receive metadata (the `MPI_Status` equivalent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// World rank of the sender.
    pub source: usize,
    /// Tag of the matched message.
    pub tag: Tag,
    /// Payload length in bytes.
    pub len: usize,
}

/// Counters modeling the "network" cost of a mailbox: one *transfer* per
/// deposit call, regardless of how many logical messages it carries. This
/// is what prediction-driven send aggregation (à la NewMadeleine, paper
/// §III-B's motivating optimization) reduces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Deposit operations (modeled wire transfers).
    pub transfers: u64,
    /// Logical messages delivered.
    pub messages: u64,
}

/// One rank's incoming-message queue.
#[derive(Debug)]
pub struct Mailbox {
    queue: Mutex<Queue>,
    cv: Condvar,
    /// World rank owning (receiving from) this mailbox; `usize::MAX` for
    /// standalone mailboxes outside a world.
    owner: usize,
    /// The owning world's failure state (detached when standalone).
    failure: Arc<FailureState>,
}

/// A mailbox's state under its one lock: a deposit pushes, counts and
/// reads `waiters` in one critical section.
#[derive(Debug, Default)]
struct Queue {
    msgs: VecDeque<Message>,
    stats: NetworkStats,
    /// Receivers counted in before their condvar wait, out after it.
    waiters: usize,
}

impl Default for Mailbox {
    fn default() -> Self {
        Self::new()
    }
}

impl Mailbox {
    /// Creates an empty standalone mailbox (no failure detection).
    pub fn new() -> Self {
        Self::for_rank(usize::MAX, Arc::new(FailureState::detached()))
    }

    /// Creates the mailbox of world rank `owner`, wired to the world's
    /// failure state so blocking receives abort when the world poisons.
    pub fn for_rank(owner: usize, failure: Arc<FailureState>) -> Self {
        Mailbox {
            queue: Mutex::new(Queue::default()),
            cv: Condvar::new(),
            owner,
            failure,
        }
    }

    /// Wakes every thread blocked in [`Mailbox::take_matching`] so it can
    /// re-check the world's poison flag (called by the world after a
    /// rank failure).
    pub fn wake_all(&self) {
        self.cv.notify_all();
    }

    /// Deposits messages as one transfer (never blocks; an aggregated
    /// send's messages still match receives individually and in order).
    ///
    /// Wakes only a waiting receiver: one counts itself in under the lock
    /// its condvar wait releases, so the count read under the push's lock
    /// sees every receiver that missed these messages.
    pub fn deposit_batch(&self, msgs: Vec<Message>) {
        if msgs.is_empty() {
            return;
        }
        let waiters = {
            let mut q = self.queue.lock();
            q.stats.transfers += 1;
            q.stats.messages += msgs.len() as u64;
            q.msgs.extend(msgs);
            q.waiters
        };
        // Unlocked first: a receiver woken into the held lock parks again.
        if waiters > 0 {
            self.cv.notify_all();
        }
    }

    /// Network counters accumulated by this mailbox.
    pub fn network_stats(&self) -> NetworkStats {
        self.queue.lock().stats
    }

    /// Blocks until a message matching `(comm_id, src, tag)` is available
    /// and removes it. `None` filters are wildcards.
    ///
    /// In a world whose failure state is poisoned this call panics with a
    /// [`crate::failure::PoisonedWorld`] payload instead of waiting
    /// forever — the hang-on-dead-peer fix. With heartbeat detection
    /// armed the wait polls and runs the stall scan on each expiry.
    pub fn take_matching(&self, comm_id: u64, src: Option<usize>, tag: Option<Tag>) -> Message {
        let mut q = self.queue.lock();
        loop {
            if let Some(idx) = Self::find(&q.msgs, comm_id, src, tag) {
                return q.msgs.remove(idx).expect("index just found");
            }
            self.failure.abort_if_poisoned();
            q.waiters += 1;
            match self.failure.wait_budget() {
                None => self.cv.wait(&mut q),
                Some(budget) => {
                    self.failure.begin_wait(self.owner);
                    let timed_out = self.cv.wait_for(&mut q, budget).timed_out();
                    self.failure.end_wait(self.owner);
                    if timed_out {
                        self.failure.suspect_stall(self.owner);
                    }
                }
            }
            q.waiters -= 1;
        }
    }

    /// Nonblocking variant of [`Mailbox::take_matching`].
    pub fn try_take_matching(
        &self,
        comm_id: u64,
        src: Option<usize>,
        tag: Option<Tag>,
    ) -> Option<Message> {
        let mut q = self.queue.lock();
        Self::find(&q.msgs, comm_id, src, tag).and_then(|idx| q.msgs.remove(idx))
    }

    /// Whether a matching message is queued (the `MPI_Iprobe` equivalent).
    pub fn probe(&self, comm_id: u64, src: Option<usize>, tag: Option<Tag>) -> bool {
        Self::find(&self.queue.lock().msgs, comm_id, src, tag).is_some()
    }

    /// Number of queued messages (diagnostics).
    pub fn queued(&self) -> usize {
        self.queue.lock().msgs.len()
    }

    fn find(
        q: &VecDeque<Message>,
        comm_id: u64,
        src: Option<usize>,
        tag: Option<Tag>,
    ) -> Option<usize> {
        q.iter().position(|m| {
            m.comm_id == comm_id && src.is_none_or(|s| m.src == s) && tag.is_none_or(|t| m.tag == t)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(src: usize, tag: Tag, comm: u64, byte: u8) -> Message {
        Message {
            src,
            tag,
            comm_id: comm,
            data: Bytes::from(vec![byte]),
        }
    }

    #[test]
    fn fifo_within_source_tag() {
        let mb = Mailbox::new();
        mb.deposit_batch(vec![msg(0, 1, 0, 10)]);
        mb.deposit_batch(vec![msg(0, 1, 0, 20)]);
        let a = mb.take_matching(0, Some(0), Some(1));
        let b = mb.take_matching(0, Some(0), Some(1));
        assert_eq!(a.data[0], 10);
        assert_eq!(b.data[0], 20);
    }

    #[test]
    fn tag_and_source_filtering() {
        let mb = Mailbox::new();
        mb.deposit_batch(vec![msg(0, 1, 0, 10)]);
        mb.deposit_batch(vec![msg(1, 2, 0, 20)]);
        let m = mb.take_matching(0, Some(1), Some(2));
        assert_eq!(m.data[0], 20);
        assert_eq!(mb.queued(), 1);
    }

    #[test]
    fn wildcards_match_anything() {
        let mb = Mailbox::new();
        mb.deposit_batch(vec![msg(3, 7, 0, 42)]);
        let m = mb.take_matching(0, ANY_SOURCE, ANY_TAG);
        assert_eq!(m.src, 3);
        assert_eq!(m.tag, 7);
    }

    #[test]
    fn comm_id_isolates_communicators() {
        let mb = Mailbox::new();
        mb.deposit_batch(vec![msg(0, 1, 5, 10)]);
        assert!(mb.try_take_matching(0, Some(0), Some(1)).is_none());
        assert!(mb.try_take_matching(5, Some(0), Some(1)).is_some());
    }

    #[test]
    fn probe_does_not_consume() {
        let mb = Mailbox::new();
        mb.deposit_batch(vec![msg(0, 1, 0, 10)]);
        assert!(mb.probe(0, Some(0), None));
        assert!(mb.probe(0, Some(0), None));
        assert_eq!(mb.queued(), 1);
    }

    #[test]
    fn blocking_take_wakes_on_deposit() {
        use std::sync::Arc;
        let mb = Arc::new(Mailbox::new());
        let mb2 = Arc::clone(&mb);
        let h = std::thread::spawn(move || mb2.take_matching(0, Some(0), Some(9)));
        std::thread::sleep(std::time::Duration::from_millis(20));
        mb.deposit_batch(vec![msg(0, 9, 0, 77)]);
        let m = h.join().unwrap();
        assert_eq!(m.data[0], 77);
    }
}
