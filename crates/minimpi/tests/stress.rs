//! Stress and property tests of the message-passing substrate: collective
//! results against sequential references on random inputs, mixed
//! p2p/collective traffic, and ordering guarantees under load.
//!
//! Every script is written once over `C: Communicator` and run on both
//! backends — rank threads of `World::run`, and `SocketComm` clients of an
//! in-process `Hub::serve` — which must agree rank by rank on the results
//! and on the mailbox counters.

use proptest::collection::vec;
use proptest::prelude::*;

use pythia_minimpi::{Comm, Communicator, NetworkStats, ReduceOp, World};

/// Per-rank script results with the rank's final mailbox counters.
type Outcome<R> = Vec<(R, NetworkStats)>;

fn threads_world<R: Send>(size: usize, script: impl Fn(&Comm) -> R + Send + Sync) -> Outcome<R> {
    World::run(size, |comm| (script(&comm), comm.network_stats()))
}

#[cfg(feature = "socket")]
fn socket_world<R: Send>(
    size: usize,
    script: impl Fn(&pythia_minimpi::SocketComm) -> R + Send + Sync,
) -> Outcome<R> {
    use pythia_minimpi::{Hub, HubStats, SocketComm};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    static WORLDS: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "pythia-minimpi-stress-{}-{}.sock",
        std::process::id(),
        WORLDS.fetch_add(1, Ordering::SeqCst)
    ));
    let (path, script) = (&path, &script);
    std::thread::scope(|s| {
        let hub = s.spawn(move || Hub::serve(path, size, false).expect("hub"));
        for _ in 0..2000 {
            if path.exists() {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let ranks: Vec<_> = (0..size)
            .map(|rank| {
                s.spawn(move || {
                    let comm = SocketComm::connect(path, rank, size, 0).expect("connect");
                    let outcome = (script(&comm), comm.network_stats());
                    comm.bye().expect("bye");
                    outcome
                })
            })
            .collect();
        let outcome = ranks.into_iter().map(|h| h.join().expect("rank")).collect();
        assert_eq!(hub.join().expect("hub thread"), HubStats::default());
        outcome
    })
}

/// Runs a script on `$size` ranks of each backend, asserts that the
/// backends agree, and yields the per-rank results.
macro_rules! on_both_backends {
    ($size:expr, |$comm:ident| $script:expr) => {{
        let threads = threads_world($size, |$comm| $script);
        #[cfg(feature = "socket")]
        assert_eq!(
            threads,
            socket_world($size, |$comm| $script),
            "threads (left) and socket (right) backends disagree"
        );
        threads.into_iter().map(|(out, _)| out).collect::<Vec<_>>()
    }};
}

/// Every rank floods its ring neighbours while collectives interleave.
fn mixed_traffic<C: Communicator>(comm: &C) -> u64 {
    let n = comm.size();
    let next = (comm.rank() + 1) % n;
    let prev = (comm.rank() + n - 1) % n;
    let mut acc = 0u64;
    for round in 0..200u64 {
        comm.send(&[round], next, (round % 7) as i32);
        let (v, _) = comm.recv::<u64>(Some(prev), Some((round % 7) as i32));
        acc += v[0];
        if round % 10 == 0 {
            let s = comm.allreduce(&[round], ReduceOp::Max);
            assert_eq!(s[0], round);
        }
    }
    acc
}

#[test]
fn heavy_mixed_traffic_terminates() {
    for v in on_both_backends!(6, |comm| mixed_traffic(comm)) {
        assert_eq!(v, (0..200).sum::<u64>());
    }
}

/// Ring shifts by `sendrecv` — the source named on even rounds, a
/// wildcard on odd ones — with a plain `send` ahead of each and a plain
/// `recv` behind it on the same tag: the `sendrecv` must take the plain
/// send's message and leave its peer's own to the `recv`.
fn sendrecv_ring<C: Communicator>(comm: &C) -> Vec<(usize, u64)> {
    let n = comm.size();
    let next = (comm.rank() + 1) % n;
    let prev = (comm.rank() + n - 1) % n;
    let mut got = Vec::new();
    for round in 0..100u64 {
        let tag = (round % 3) as i32;
        comm.send(&[round * 2], next, tag);
        let src = (round % 2 == 0).then_some(prev);
        let (v, status) = comm.sendrecv(&[round * 2 + 1], next, src, tag);
        got.push((status.source, v[0]));
        let (v, status) = comm.recv::<u64>(Some(prev), Some(tag));
        got.push((status.source, v[0]));
    }
    got
}

/// `deposit_take` as the threads backend has it (deposit, then take) and
/// as the socket backend overrides it (one SENDRECV frame) cannot be told
/// apart: same results, same mailbox counters, per-sender FIFO order.
#[test]
fn sendrecv_keeps_fifo_order_among_plain_sends() {
    let out = on_both_backends!(4, |comm| sendrecv_ring(comm));
    for (rank, got) in out.iter().enumerate() {
        let prev = (rank + 3) % 4;
        let in_order: Vec<(usize, u64)> = (0..200).map(|v| (prev, v)).collect();
        assert_eq!(got, &in_order, "rank {rank}");
    }
}

fn same_tag_stream<C: Communicator>(comm: &C) -> Vec<u64> {
    if comm.rank() == 0 {
        for i in 0..1000u64 {
            comm.send(&[i], 1, 3);
        }
        Vec::new()
    } else {
        (0..1000)
            .map(|_| comm.recv::<u64>(Some(0), Some(3)).0[0])
            .collect()
    }
}

#[test]
fn non_overtaking_order_under_load() {
    let out = on_both_backends!(2, |comm| same_tag_stream(comm));
    let sorted: Vec<u64> = (0..1000).collect();
    assert_eq!(out[1], sorted, "same-(src,tag) messages reordered");
}

fn drain_tags_backwards<C: Communicator>(comm: &C) -> u64 {
    if comm.rank() == 0 {
        comm.send(&[1u64], 1, 1);
        comm.send(&[2u64], 1, 2);
        0
    } else {
        // Drain tag 2 before tag 1.
        let (b, _) = comm.recv::<u64>(Some(0), Some(2));
        let (a, _) = comm.recv::<u64>(Some(0), Some(1));
        a[0] * 10 + b[0]
    }
}

#[test]
fn different_tags_can_be_drained_out_of_order() {
    let out = on_both_backends!(2, |comm| drain_tags_backwards(comm));
    assert_eq!(out[1], 12);
}

fn empty_collectives<C: Communicator>(comm: &C) -> usize {
    let empty: Vec<f64> = Vec::new();
    assert!(comm.allreduce(&empty, ReduceOp::Sum).is_empty());
    let gathered = comm.allgather(&empty).len();
    assert!(comm.bcast(&empty, 0).is_empty());
    comm.barrier();
    gathered
}

#[test]
fn collectives_with_empty_payloads() {
    let out = on_both_backends!(3, |comm| empty_collectives(comm));
    assert_eq!(out, vec![3, 3, 3]);
}

fn large_payload<C: Communicator>(comm: &C) -> u64 {
    if comm.rank() == 0 {
        let big: Vec<u64> = (0..100_000).collect();
        comm.send(&big, 1, 0);
        0
    } else {
        let (data, status) = comm.recv::<u64>(Some(0), Some(0));
        assert_eq!(status.len, 100_000 * 8);
        data.iter().sum::<u64>() % 1_000_003
    }
}

#[test]
fn large_payload_roundtrip() {
    let out = on_both_backends!(2, |comm| large_payload(comm));
    assert_eq!(out[1], (0..100_000u64).sum::<u64>() % 1_000_003);
}

/// Splits into halves, then quarters; collectives at each level.
fn nested_splits<C: Communicator>(comm: &C) -> (u64, u64, u64) {
    let half = comm.split((comm.rank() / 4) as i64, comm.rank() as i64);
    let quarter = half.split((half.rank() / 2) as i64, half.rank() as i64);
    let world_sum = comm.allreduce(&[1u64], ReduceOp::Sum)[0];
    let half_sum = half.allreduce(&[1u64], ReduceOp::Sum)[0];
    let quarter_sum = quarter.allreduce(&[1u64], ReduceOp::Sum)[0];
    (world_sum, half_sum, quarter_sum)
}

#[test]
fn nested_split_hierarchy() {
    for v in on_both_backends!(8, |comm| nested_splits(comm)) {
        assert_eq!(v, (8, 4, 2));
    }
}

/// A message on the dup is invisible to the original, and the reverse.
fn dup_and_original<C: Communicator>(comm: &C) -> (u64, u64) {
    let dup = comm.dup();
    assert_eq!((dup.rank(), dup.size()), (comm.rank(), comm.size()));
    assert_ne!(dup.id(), comm.id());
    let mut got = (0, 0);
    if comm.rank() == 0 {
        dup.send(&[7u64], 1, 1);
        comm.send(&[8u64], 1, 1);
    }
    if comm.rank() == 1 {
        got.0 = comm.recv::<u64>(Some(0), Some(1)).0[0];
        got.1 = dup.recv::<u64>(Some(0), Some(1)).0[0];
    }
    comm.barrier();
    got
}

#[test]
fn dup_isolates_messages() {
    let out = on_both_backends!(3, |comm| dup_and_original(comm));
    assert_eq!(out, vec![(0, 0), (8, 7), (0, 0)]);
}

/// Yields a seeded 0–3 times: skew that moves one side of a hand-off
/// ahead of or behind the other.
fn skew(rng: &mut rand::rngs::SmallRng) {
    use rand::Rng;
    for _ in 0..rng.gen_range(0..4) {
        std::thread::yield_now();
    }
}

/// One rank's side of [`no_wakeup_is_lost`]: one operation per round, the
/// same on every rank, with skew before and inside it that differs per
/// rank, so that a receive is posted now before its send and now after
/// it, and a member reaches a collective now first and now last.
fn skewed_hand_offs<C: Communicator>(comm: &C, rounds: u64) -> u64 {
    use rand::SeedableRng;
    let n = comm.size();
    let (next, prev) = ((comm.rank() + 1) % n, (comm.rank() + n - 1) % n);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(37 + comm.rank() as u64);
    let mut sum = 0;
    for round in 0..rounds {
        skew(&mut rng);
        let got = match round % 4 {
            0 => {
                comm.send(&[round], next, 0);
                skew(&mut rng);
                comm.recv::<u64>(Some(prev), Some(0)).0[0]
            }
            1 => comm.sendrecv(&[round], next, Some(prev), 1).0[0],
            2 => {
                comm.barrier();
                round
            }
            _ => comm.allreduce(&[round], ReduceOp::Sum)[0] / n as u64,
        };
        assert_eq!(got, round, "rank {} round {round}", comm.rank());
        sum += got;
    }
    sum
}

/// Mailboxes and boards wake only a parked waiter. A wake-up lost to that
/// test would leave a rank parked for good: each world runs under a
/// watchdog that turns such a hang into a failure with a message. Threads
/// backend only: the hub drives the same mailboxes and boards.
#[test]
fn no_wakeup_is_lost() {
    use std::sync::mpsc;
    use std::time::Duration;
    const ROUNDS: u64 = 20_000;
    for size in 2..=4 {
        let (done, finished) = mpsc::channel();
        let world = std::thread::spawn(move || {
            let sums = World::run(size, |comm| skewed_hand_offs(&comm, ROUNDS));
            done.send(sums).expect("the watchdog waits");
        });
        match finished.recv_timeout(Duration::from_secs(60)) {
            Ok(sums) => assert_eq!(sums, vec![(0..ROUNDS).sum::<u64>(); size]),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                panic!("a {size}-rank world made no progress in 60 s: a wake-up was lost")
            }
            // The world panicked before sending: re-raise its panic.
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(world.join().expect_err("the world sent nothing"))
            }
        }
        world.join().expect("the world finished");
    }
}

fn gather_then_scatter<C: Communicator>(comm: &C, mine: u64, root: usize) -> u64 {
    let chunks = comm.gather(&[mine], root);
    comm.scatter(chunks.as_deref(), root)[0]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Allreduce(sum) over random per-rank vectors equals the sequential
    /// sum, regardless of rank count.
    #[test]
    fn allreduce_matches_reference(
        ranks in 1usize..6,
        data in vec(vec(-1000i64..1000, 4), 1..6),
    ) {
        let contribs: Vec<Vec<i64>> = (0..ranks)
            .map(|r| data[r % data.len()].clone())
            .collect();
        let mut expect = vec![0i64; 4];
        for c in &contribs {
            for (e, v) in expect.iter_mut().zip(c) {
                *e += v;
            }
        }
        let out = on_both_backends!(ranks, |comm| {
            comm.allreduce(&contribs[comm.rank()], ReduceOp::Sum)
        });
        for v in out {
            prop_assert_eq!(&v, &expect);
        }
    }

    /// Alltoall is an exact matrix transpose for arbitrary payloads.
    #[test]
    fn alltoall_transposes_any_matrix(
        ranks in 1usize..6,
        seed in 0u64..1000,
    ) {
        let out = on_both_backends!(ranks, |comm| {
            let sends: Vec<Vec<u64>> = (0..comm.size())
                .map(|d| vec![seed + (comm.rank() * 100 + d) as u64])
                .collect();
            comm.alltoall(&sends)
        });
        for (r, recvd) in out.iter().enumerate() {
            for (s, v) in recvd.iter().enumerate() {
                prop_assert_eq!(v[0], seed + (s * 100 + r) as u64);
            }
        }
    }

    /// Gather/scatter round-trip arbitrary data unchanged.
    #[test]
    fn gather_scatter_identity(
        ranks in 1usize..6,
        root_choice in 0usize..6,
        base in 0u64..1_000_000,
    ) {
        let root = root_choice % ranks;
        let out = on_both_backends!(ranks, |comm| {
            gather_then_scatter(comm, base + comm.rank() as u64, root)
        });
        for (r, v) in out.iter().enumerate() {
            prop_assert_eq!(*v, base + r as u64);
        }
    }
}
