//! Integration tests of prediction-driven send aggregation — the paper's
//! motivating MPI optimization ("aggregating multiple successive MPI send
//! messages", §III-B): correctness of delivery, ordering, and the actual
//! transfer reduction.

use std::sync::Arc;

use pythia_minimpi::{Communicator, NetworkStats, World};
use pythia_runtime_mpi::session::assemble_trace;
use pythia_runtime_mpi::{AggregationConfig, MpiMode, PythiaComm, RankReport};

const BURST: usize = 6;
const ITERS: usize = 20;

/// A bursty app: rank 0 sends `BURST` messages to rank 1 per iteration,
/// rank 1 receives them; both then synchronize.
fn bursty_app(pc: &PythiaComm) -> (Vec<u64>, NetworkStats) {
    let mut received = Vec::new();
    for it in 0..ITERS {
        if pc.rank() == 0 {
            for k in 0..BURST {
                pc.isend(&[(it * BURST + k) as u64], 1, 5);
            }
        } else {
            for _ in 0..BURST {
                let (v, _) = pc.recv::<u64>(Some(0), Some(5));
                received.push(v[0]);
            }
        }
        pc.barrier();
    }
    (received, pc.network_stats())
}

fn run(mode: MpiMode, aggregate: bool) -> Vec<(RankReport, Vec<u64>, NetworkStats)> {
    let registry = PythiaComm::registry_for(&mode);
    World::run(2, |comm| {
        let pc = PythiaComm::wrap(comm, &mode, Arc::clone(&registry));
        if aggregate {
            pc.enable_aggregation(AggregationConfig::default());
        }
        let (recvd, net) = bursty_app(&pc);
        (pc.finish().unwrap(), recvd, net)
    })
}

fn record_trace() -> Arc<pythia_core::trace::TraceData> {
    let mode = MpiMode::record();
    let registry = PythiaComm::registry_for(&mode);
    let reports = World::run(2, |comm| {
        let pc = PythiaComm::wrap(comm, &mode, Arc::clone(&registry));
        bursty_app(&pc);
        pc.finish().unwrap()
    });
    Arc::new(assemble_trace(reports, &registry).unwrap())
}

#[test]
fn aggregation_preserves_delivery_and_order() {
    let trace = record_trace();
    let out = run(MpiMode::predict(trace), true);
    let received = &out[1].1;
    let expect: Vec<u64> = (0..(ITERS * BURST) as u64).collect();
    assert_eq!(received, &expect, "messages lost or reordered");
}

#[test]
fn aggregation_reduces_transfers() {
    // Baseline: predict mode without aggregation.
    let trace = record_trace();
    let base = run(MpiMode::predict(Arc::clone(&trace)), false);
    let base_net = base[1].2; // rank 1's incoming mailbox
                              // With aggregation.
    let agg = run(MpiMode::predict(trace), true);
    let agg_net = agg[1].2;
    assert_eq!(base_net.messages, agg_net.messages, "same logical traffic");
    assert!(
        agg_net.transfers < base_net.transfers / 2,
        "aggregation should at least halve transfers: {} vs {}",
        agg_net.transfers,
        base_net.transfers
    );
    let stats = agg[0].0.aggregation;
    assert!(stats.held_back > 0, "{stats:?}");
    assert!(stats.batches > 0, "{stats:?}");
    assert_eq!(stats.logical_sends, (ITERS * BURST) as u64);
}

#[test]
fn aggregation_inert_without_predictions() {
    // In record mode the oracle cannot predict, so aggregation must not
    // hold anything back.
    let mode = MpiMode::record();
    let registry = PythiaComm::registry_for(&mode);
    let out = World::run(2, |comm| {
        let pc = PythiaComm::wrap(comm, &mode, Arc::clone(&registry));
        pc.enable_aggregation(AggregationConfig::default());
        let (recvd, net) = bursty_app(&pc);
        (pc.finish().unwrap(), recvd, net)
    });
    let expect: Vec<u64> = (0..(ITERS * BURST) as u64).collect();
    assert_eq!(out[1].1, expect);
    assert_eq!(out[0].0.aggregation.held_back, 0);
}

#[test]
fn interleaved_destinations_flush_correctly() {
    // Alternating destinations: per-peer bursts of 1 — aggregation cannot
    // batch across peers and must preserve order everywhere.
    let mode = MpiMode::record();
    let registry = PythiaComm::registry_for(&mode);
    let app = |pc: &PythiaComm| -> Vec<u64> {
        let mut got = Vec::new();
        for it in 0..30u64 {
            match pc.rank() {
                0 => {
                    pc.isend(&[it], 1, 7);
                    pc.isend(&[it], 2, 7);
                }
                _ => {
                    let (v, _) = pc.recv::<u64>(Some(0), Some(7));
                    got.push(v[0]);
                }
            }
            pc.barrier();
        }
        got
    };
    let reports = World::run(3, |comm| {
        let pc = PythiaComm::wrap(comm, &mode, Arc::clone(&registry));
        app(&pc);
        pc.finish().unwrap()
    });
    let trace = Arc::new(assemble_trace(reports, &registry).unwrap());
    // One registry shared by every rank of the predicting run — the
    // published snapshot is seeded once from the trace, never cloned
    // per rank.
    let mode = MpiMode::predict(Arc::clone(&trace));
    let predict_registry = PythiaComm::registry_for(&mode);
    let out = World::run(3, |comm| {
        let pc = PythiaComm::wrap(comm, &mode, Arc::clone(&predict_registry));
        pc.enable_aggregation(AggregationConfig::default());
        let got = app(&pc);
        pc.finish().unwrap();
        got
    });
    let expect: Vec<u64> = (0..30).collect();
    assert_eq!(out[1], expect);
    assert_eq!(out[2], expect);
}

/// A held send belongs to the communicator it was buffered on. Rank 2
/// sends on its row communicator (`{2, 3}`) and then on the world, to
/// local rank 1 both times — world rank 3, then world rank 1 — with the
/// same event ids, so the oracle predicts the second send from the first.
/// With `world_tag` equal to the row tag the world send would extend the
/// row batch; with another tag it flushes it through the world handle
/// instead. Either way every message must arrive on the communicator it
/// was sent on. Receivers drain with `try_recv` after the final barrier,
/// so a misrouted message fails the test instead of hanging it.
fn cross_communicator_batches_ship_on_their_own_communicator(world_tag: i32) {
    const ITERS: u64 = 30;
    const ROW_TAG: i32 = 5;
    let app = |pc: &PythiaComm| {
        let row = pc.split((pc.rank() / 2) as i64, pc.rank() as i64);
        for it in 0..ITERS {
            if pc.rank() == 2 {
                row.isend(&[it], 1, ROW_TAG);
                pc.isend(&[1000 + it], 1, world_tag);
            }
            pc.barrier();
        }
        let drain = |comm: &PythiaComm| {
            let mut got = Vec::new();
            while let Some((v, _)) = comm.try_recv::<u64>(None, None) {
                got.push(v[0]);
            }
            got
        };
        (drain(&row), drain(pc))
    };
    let mode = MpiMode::record();
    let registry = PythiaComm::registry_for(&mode);
    let reports = World::run(4, |comm| {
        let pc = PythiaComm::wrap(comm, &mode, Arc::clone(&registry));
        app(&pc);
        pc.finish().unwrap()
    });
    let trace = Arc::new(assemble_trace(reports, &registry).unwrap());
    let mode = MpiMode::predict(trace);
    let registry = PythiaComm::registry_for(&mode);
    let out = World::run(4, |comm| {
        let pc = PythiaComm::wrap(comm, &mode, Arc::clone(&registry));
        pc.enable_aggregation(AggregationConfig::default());
        let got = app(&pc);
        (pc.finish().unwrap(), got)
    });
    assert!(
        out[2].0.aggregation.held_back > 0,
        "the scenario must hold sends back: {:?}",
        out[2].0.aggregation
    );
    let row_msgs: Vec<u64> = (0..ITERS).collect();
    let world_msgs: Vec<u64> = (1000..1000 + ITERS).collect();
    assert_eq!(out[3].1 .0, row_msgs, "rank 3, row communicator");
    assert_eq!(out[1].1 .1, world_msgs, "rank 1, world communicator");
    for (rank, (_, (row, world))) in out.iter().enumerate() {
        if rank != 3 {
            assert!(row.is_empty(), "rank {rank} got {row:?} on its row");
        }
        if rank != 1 {
            assert!(world.is_empty(), "rank {rank} got {world:?} on the world");
        }
    }
}

#[test]
fn held_send_is_not_extended_by_another_communicator() {
    cross_communicator_batches_ship_on_their_own_communicator(5);
}

#[test]
fn held_send_is_not_flushed_through_another_communicator() {
    cross_communicator_batches_ship_on_their_own_communicator(6);
}
