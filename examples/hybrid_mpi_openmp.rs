//! A true MPI+OpenMP hybrid rank, the way the paper's hybrid applications
//! run (§III-B): each MPI rank hosts an OpenMP runtime, and *both* runtime
//! systems feed the same per-rank PYTHIA oracle — the recorded grammar
//! interleaves `MPI_*` and `omp_region_*` events. On the second run the
//! OpenMP side adapts its team sizes from predicted region durations while
//! the MPI side scores its own predictions.
//!
//! ```sh
//! cargo run --release --example hybrid_mpi_openmp -- [RANKS] [OMP_THREADS]
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pythia::minimpi::{Communicator, ReduceOp, World};
use pythia::minomp::{OmpRuntime, PoolMode, RegionId};
use pythia::runtime_mpi::session::assemble_trace;
use pythia::runtime_mpi::{MpiMode, PythiaComm};
use pythia::runtime_omp::ThresholdPolicy;

/// A miniFE-like solver step: an OpenMP matvec region, an OpenMP small
/// boundary region, then MPI dot products.
fn solver(pc: &PythiaComm, omp_threads: usize, adaptive: bool) {
    let listener = if adaptive {
        let policy = ThresholdPolicy::default();
        pc.omp_listener(Some(Box::new(move |d| policy.choose(d))))
    } else {
        pc.omp_listener(None)
    };
    let rt = OmpRuntime::with_listener(omp_threads, PoolMode::Park, listener);
    for _ in 0..20 {
        // Big region: the matvec.
        let sum = AtomicU64::new(0);
        rt.parallel_for(RegionId(0), 20_000, |i| {
            sum.fetch_add((i % 7) as u64, Ordering::Relaxed);
        });
        // Small region: boundary conditions.
        rt.parallel_for(RegionId(1), 16, |_| {
            std::hint::black_box(0u64);
        });
        // MPI: two dot products.
        pc.allreduce(&[1.0f64], ReduceOp::Sum);
        pc.allreduce(&[sum.load(Ordering::Relaxed) as f64], ReduceOp::Sum);
    }
    pc.barrier();
}

fn main() {
    let mut args = std::env::args().skip(1);
    let ranks: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);
    let omp_threads: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);

    // ---- Reference execution: record both runtimes' events ----
    println!("recording {ranks} ranks x {omp_threads} OpenMP threads...");
    let mode = MpiMode::record();
    let registry = PythiaComm::registry_for(&mode);
    let reports = World::run(ranks, |comm| {
        let pc = PythiaComm::wrap(comm, &mode, Arc::clone(&registry));
        solver(&pc, omp_threads, false);
        pc.finish().expect("no live split communicators")
    });
    println!(
        "  rank 0 recorded {} events ({} rules)",
        reports[0].events, reports[0].rules
    );
    let trace = Arc::new(assemble_trace(reports, &registry).expect("record-mode run"));
    println!("\nrank 0 grammar (MPI and OpenMP events in one stream):");
    print!(
        "{}",
        trace
            .thread(0)
            .unwrap()
            .grammar
            .render(&|e| trace.registry().name_of(e).replace("MPI_", ""))
    );

    // ---- Second execution: OpenMP adapts, MPI predicts ----
    let mode = MpiMode::predict(Arc::clone(&trace));
    let registry = PythiaComm::registry_for(&mode);
    let reports = World::run(ranks, |comm| {
        let pc = PythiaComm::wrap(comm, &mode, Arc::clone(&registry));
        solver(&pc, omp_threads, true);
        pc.finish().expect("no live split communicators")
    });
    let r0 = &reports[0];
    let st = r0.predict_stats.unwrap();
    println!(
        "\npredict run, rank 0: {} events observed, {} matched, {} re-seeds",
        st.observed, st.matched, st.reseeded
    );
    let (d, acc) = r0.accuracy[0];
    println!(
        "MPI blocking-call predictions at distance {d}: {:.1}% of {} correct",
        acc.accuracy() * 100.0,
        acc.total()
    );
}
