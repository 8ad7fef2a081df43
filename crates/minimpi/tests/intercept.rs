//! The interception contract of [`Communicator::intercept`]: a wrapper
//! that overrides the hook and forwards the primitives sees every provided
//! MPI call exactly once, with its payload — and nothing else.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use bytes::Bytes;
use pythia_minimpi::{
    Comm, Communicator, Message, MpiCall, NetworkStats, RankFault, ReduceOp, Tag, World,
};

/// A PMPI-style wrapper: logs each intercepted call, forwards the rest.
struct Counting {
    inner: Comm,
    seen: Rc<RefCell<Vec<MpiCall>>>,
}

impl Counting {
    /// The calls intercepted since the last drain.
    fn drain(&self) -> Vec<MpiCall> {
        std::mem::take(&mut self.seen.borrow_mut())
    }
}

impl Communicator for Counting {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn size(&self) -> usize {
        self.inner.size()
    }
    fn id(&self) -> u64 {
        self.inner.id()
    }
    fn world_rank(&self, local: usize) -> usize {
        self.inner.world_rank(local)
    }
    fn deposit(&self, dest: usize, msgs: Vec<Message>) {
        self.inner.deposit(dest, msgs)
    }
    fn take(&self, src: Option<usize>, tag: Option<Tag>) -> Message {
        self.inner.take(src, tag)
    }
    fn try_take(&self, src: Option<usize>, tag: Option<Tag>) -> Option<Message> {
        self.inner.try_take(src, tag)
    }
    fn probe(&self, src: Option<usize>, tag: Option<Tag>) -> bool {
        self.inner.probe(src, tag)
    }
    fn exchange(&self, mine: Vec<Bytes>) -> Arc<Vec<Vec<Bytes>>> {
        self.inner.exchange(mine)
    }
    fn next_split_seq(&self) -> u64 {
        self.inner.next_split_seq()
    }
    fn register_split(&self, seq: u64, color: i64, members: Vec<usize>, my_rank: usize) -> Self {
        Counting {
            inner: self.inner.register_split(seq, color, members, my_rank),
            seen: Rc::clone(&self.seen),
        }
    }
    fn network_stats(&self) -> NetworkStats {
        self.inner.network_stats()
    }
    fn poisoned(&self) -> Option<usize> {
        self.inner.poisoned()
    }
    fn failures_detected(&self) -> u64 {
        self.inner.failures_detected()
    }
    fn fail_self(&self, fault: RankFault) -> ! {
        self.inner.fail_self(fault)
    }
    fn intercept(&self, call: MpiCall) {
        self.seen.borrow_mut().push(call);
    }
}

/// Each provided MPI call, once, on both ranks of a 2-rank world: exactly
/// one intercept per call, of the right kind, with the right payload.
#[test]
fn every_provided_call_is_intercepted_once_with_its_payload() {
    World::run(2, |comm| {
        let c = Counting {
            inner: comm,
            seen: Rc::default(),
        };
        let me = c.rank();
        let peer = 1 - me;
        let root = 1;
        let op = ReduceOp::Max;
        let expect = |call: MpiCall| {
            assert_eq!(c.drain(), vec![call], "rank {me}");
        };

        c.send(&[1u8], peer, 0);
        expect(MpiCall::Send(peer));
        c.recv::<u8>(Some(peer), Some(0));
        expect(MpiCall::Recv(Some(peer)));
        c.send(&[2u8], peer, 0);
        c.drain();
        c.recv::<u8>(None, Some(0));
        expect(MpiCall::Recv(None));
        let s = c.isend(&[3u8], peer, 1);
        expect(MpiCall::Isend(peer));
        let r = c.irecv::<u8>(Some(peer), Some(1));
        expect(MpiCall::Irecv(Some(peer)));
        let r_any = c.irecv::<u8>(None, Some(2));
        expect(MpiCall::Irecv(None));
        c.wait(s);
        expect(MpiCall::Wait);
        c.send(&[4u8], peer, 2);
        c.drain();
        c.waitall(vec![r, r_any]);
        expect(MpiCall::Waitall);
        c.sendrecv(&[5u8], peer, Some(peer), 3);
        expect(MpiCall::Sendrecv(peer));

        c.barrier();
        expect(MpiCall::Barrier);
        c.bcast(&[6u8], root);
        expect(MpiCall::Bcast(root));
        c.reduce(&[7u64], op, root);
        expect(MpiCall::Reduce(op));
        c.allreduce(&[8u64], op);
        expect(MpiCall::Allreduce(op));
        c.alltoall(&[vec![9u8], vec![10u8]]);
        expect(MpiCall::Alltoall);
        c.gather(&[11u8], root);
        expect(MpiCall::Gather(root));
        c.allgather(&[12u8]);
        expect(MpiCall::Allgather);
        let chunks = [vec![13u8], vec![14u8]];
        c.scatter((me == root).then_some(&chunks[..]), root);
        expect(MpiCall::Scatter(root));
        c.scan(&[15u64], op);
        expect(MpiCall::Scan(op));
        c.reduce_scatter(&[vec![16u64], vec![17u64]], op);
        expect(MpiCall::ReduceScatter(op));

        let color = 40 + me as i64;
        let sub = c.split(color, 0);
        expect(MpiCall::CommSplit(color));
        let dup = sub.dup();
        expect(MpiCall::CommDup);
        // Handles made by split/dup report through the same hook.
        dup.barrier();
        expect(MpiCall::Barrier);

        // Payload spelling as an event payload.
        assert_eq!(MpiCall::Recv(None).payload(), Some(-1));
        assert_eq!(MpiCall::Send(peer).payload(), Some(peer as i64));
        assert_eq!(MpiCall::Gather(root).payload(), Some(root as i64));
        assert_eq!(MpiCall::Allreduce(op).payload(), Some(op.code()));
        assert_eq!(MpiCall::CommSplit(color).payload(), Some(color));
        assert_eq!(MpiCall::CommDup.payload(), None);
    });
}

/// `try_recv`, `probe`, `send_batch` and `send_batch_raw` are transport
/// helpers, not instrumented calls: they never reach the hook.
#[test]
fn transport_helpers_are_not_intercepted() {
    World::run(2, |comm| {
        let c = Counting {
            inner: comm,
            seen: Rc::default(),
        };
        let peer = 1 - c.rank();
        c.send_batch(&[vec![1u8], vec![2u8]], peer, 0);
        c.send_batch_raw(vec![Bytes::from(vec![3u8])], peer, 0);
        c.barrier();
        assert_eq!(c.drain(), vec![MpiCall::Barrier]);
        assert!(c.probe(Some(peer), Some(0)));
        let mut got = Vec::new();
        while let Some((v, _)) = c.try_recv::<u8>(Some(peer), Some(0)) {
            got.extend(v);
        }
        assert_eq!(got, [1, 2, 3]);
        assert!(c.drain().is_empty(), "a transport helper was intercepted");
    });
}
