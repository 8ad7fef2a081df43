//! NPB **FT** — 3-D FFT kernel.
//!
//! Each iteration performs local 1-D FFTs and a global transpose, which in
//! the MPI implementation is one `MPI_Alltoall` per iteration, followed by
//! a checksum reduction. Class A/B/C run 6/20/20 iterations on growing
//! grids; the skeleton uses 6/12/20. The paper records 3072 events over 64
//! ranks (48 per rank) — the same order as this skeleton's per-rank count.

use pythia_minimpi::{Communicator, ReduceOp};
use pythia_runtime_mpi::PythiaComm;

use crate::work::WorkScale;
use crate::{MpiApp, WorkingSet};

/// FT skeleton.
pub struct Ft;

impl MpiApp for Ft {
    fn name(&self) -> &'static str {
        "FT"
    }

    fn preferred_ranks(&self) -> usize {
        16
    }

    fn run(&self, comm: &PythiaComm, ws: WorkingSet, work: &WorkScale) {
        let iters: usize = ws.pick(6, 12, 20);
        let grid: u64 = ws.pick(64, 128, 256); // class A/B/C: 256/512/512
        let points_per_rank = grid * grid * grid / comm.size() as u64 / 64;
        let slab: Vec<f64> = vec![0.0; comm.size()];

        // Setup: broadcast problem parameters, initial evolution.
        comm.bcast(&[grid as f64], 0);
        comm.barrier();
        work.compute(points_per_rank);

        for _ in 0..iters {
            // Local FFTs then the global transpose.
            work.compute(points_per_rank);
            let sends: Vec<Vec<f64>> = (0..comm.size()).map(|_| slab.clone()).collect();
            comm.alltoall(&sends);
            work.compute(points_per_rank / 2);
            // Checksum.
            comm.allreduce(&[1.0f64, 0.0], ReduceOp::Sum);
        }
        comm.barrier();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{check_app_structure, run_app};
    use pythia_runtime_mpi::MpiMode;

    #[test]
    fn structure_and_prediction() {
        check_app_structure(&Ft, 4, 0.85);
    }

    #[test]
    fn few_events_small_grammar() {
        let res = run_app(
            &Ft,
            4,
            WorkingSet::Large,
            MpiMode::record(),
            WorkScale::ZERO,
        );
        // 3 setup/teardown + 2 per iteration.
        assert_eq!(res.total_events(), 4 * (3 + 2 * 20));
        assert!(res.mean_rules() <= 4.0, "{}", res.mean_rules());
    }
}
