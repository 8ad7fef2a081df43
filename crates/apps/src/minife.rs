//! **miniFE** — unstructured implicit finite-element proxy (MPI + OpenMP).
//!
//! A short assembly/setup phase (ghost-node discovery via `MPI_Allgather`,
//! matrix statistics gathered to rank 0) followed by a CG solve: each
//! iteration exchanges halo contributions with the mesh neighbours, runs
//! the OpenMP matvec, and computes two dot products. Working sets mirror
//! `-nx 100/200/300`. The paper records 39 k events with 8 rules — a very
//! regular application.

use pythia_minimpi::{Communicator, ReduceOp};
use pythia_runtime_mpi::PythiaComm;

use crate::work::WorkScale;
use crate::{MpiApp, WorkingSet};

/// miniFE skeleton.
pub struct MiniFe;

const TAG_HALO: i32 = 90;

impl MpiApp for MiniFe {
    fn name(&self) -> &'static str {
        "miniFE"
    }

    fn hybrid(&self) -> bool {
        true
    }

    fn run(&self, comm: &PythiaComm, ws: WorkingSet, work: &WorkScale) {
        let cg_iters: usize = ws.pick(10, 20, 30); // real runs use 200
        let row_work: u64 = ws.pick(4000, 20_000, 70_000); // ~ (nx/100)^3
        let n = comm.size();
        let next = (comm.rank() + 1) % n;
        let prev = (comm.rank() + n - 1) % n;

        // ---- Assembly / setup ----
        comm.custom_event("omp_region_begin", Some(100)); // generate matrix
        work.compute(row_work);
        comm.custom_event("omp_region_end", Some(100));
        comm.allgather(&[comm.rank() as i64]); // ghost-node ownership
        comm.gather(&[row_work as i64], 0); // matrix statistics
        comm.bcast(&[1.0f64], 0); // solver parameters
        comm.barrier();

        // ---- CG solve ----
        for _ in 0..cg_iters {
            // Halo exchange with the two mesh neighbours.
            let reqs = vec![
                comm.irecv::<f64>(Some(prev), Some(TAG_HALO)),
                comm.irecv::<f64>(Some(next), Some(TAG_HALO)),
                comm.isend(&[0.0f64; 2], next, TAG_HALO),
                comm.isend(&[0.0f64; 2], prev, TAG_HALO),
            ];
            comm.waitall(reqs);
            // OpenMP matvec.
            comm.custom_event("omp_region_begin", Some(101));
            work.compute(row_work / 4);
            comm.custom_event("omp_region_end", Some(101));
            // Dot products.
            comm.allreduce(&[1.0f64], ReduceOp::Sum);
            comm.allreduce(&[1.0f64], ReduceOp::Sum);
        }
        comm.reduce(&[1.0f64], ReduceOp::Sum, 0); // final residual
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
        check_app_structure(&MiniFe, 4, 0.85);
    }

    #[test]
    fn very_regular_grammar() {
        let res = run_app(
            &MiniFe,
            4,
            WorkingSet::Large,
            MpiMode::record(),
            WorkScale::ZERO,
        );
        // setup 6 + iters*9 + final 2.
        assert_eq!(res.total_events(), 4 * (6 + 30 * 9 + 2));
        // Paper: 8 rules.
        assert!(res.mean_rules() <= 12.0, "{} rules", res.mean_rules());
    }
}
