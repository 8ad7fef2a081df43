//! NPB **CG** — conjugate-gradient kernel.
//!
//! The sparse matrix–vector products exchange partial sums across the
//! rows/columns of a 2-D processor grid (log-structured swap stages plus a
//! transpose exchange), and every CG iteration ends with two dot-product
//! `MPI_Allreduce`s. Class A/B/C run 15/75/75 outer iterations of 25 CG
//! steps; scaled here to 5/10/15 outer × 10 inner. This is the
//! second-chattiest NPB kernel in the paper (3.8 M events over 64 ranks,
//! 15 grammar rules).

use pythia_minimpi::{Communicator, ReduceOp};
use pythia_runtime_mpi::PythiaComm;

use crate::npb::{coords_2d, grid_2d};
use crate::work::WorkScale;
use crate::{MpiApp, WorkingSet};

/// CG skeleton.
pub struct Cg;

const TAG_SWAP: i32 = 20;
const TAG_TRANSPOSE: i32 = 21;

impl MpiApp for Cg {
    fn name(&self) -> &'static str {
        "CG"
    }

    fn preferred_ranks(&self) -> usize {
        16
    }

    fn run(&self, comm: &PythiaComm, ws: WorkingSet, work: &WorkScale) {
        let outer: usize = ws.pick(5, 10, 15);
        let inner: usize = 10;
        let rows_n: u64 = ws.pick(14_000, 70_000, 150_000); // class A/B/C rows: 14000/75000/150000
        let dims = grid_2d(comm.size());
        let (row, col) = coords_2d(comm.rank(), dims);
        // Reduction partners within the row: log2 swap stages.
        let stages: usize =
            (usize::BITS - 1 - dims.1.leading_zeros().min(usize::BITS - 1)) as usize;
        let payload = vec![0.0f64; 8];

        comm.bcast(&[rows_n as f64], 0);
        // NPB CG reduces partial sums across processor-grid rows: build
        // the row communicator once (MPI_Comm_split), like the original.
        let row_comm = comm.split(row as i64, col as i64);
        comm.barrier();

        for _ in 0..outer {
            for _ in 0..inner {
                // Sparse matvec: row-wise partial-sum exchange
                // (recursive-halving inside the row communicator).
                work.compute(rows_n / comm.size() as u64);
                for s in 0..stages {
                    let peer = row_comm.rank() ^ (1 << s);
                    if peer < row_comm.size() {
                        let send = row_comm.isend(&payload, peer, TAG_SWAP);
                        let recv = row_comm.irecv::<f64>(Some(peer), Some(TAG_SWAP));
                        row_comm.waitall(vec![send, recv]);
                    }
                }
                // Transpose exchange (w -> q redistribution). Only square
                // grids have the transpose partner (NPB CG requires a
                // power-of-two rank count for the same reason); the
                // partner map (row, col) -> (col, row) is an involution,
                // so both sides always exchange.
                if dims.0 == dims.1 {
                    let transpose = col * dims.1 + row;
                    if transpose != comm.rank() {
                        let send = comm.isend(&payload, transpose, TAG_TRANSPOSE);
                        let recv = comm.irecv::<f64>(Some(transpose), Some(TAG_TRANSPOSE));
                        comm.waitall(vec![send, recv]);
                    }
                }
                // Two dot products.
                comm.allreduce(&[1.0f64], ReduceOp::Sum);
                comm.allreduce(&[1.0f64], ReduceOp::Sum);
            }
            // Norm of the outer residual.
            comm.allreduce(&[1.0f64], ReduceOp::Sum);
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
        check_app_structure(&Cg, 4, 0.85);
    }

    #[test]
    fn chatty_but_regular() {
        let res = run_app(
            &Cg,
            4,
            WorkingSet::Small,
            MpiMode::record(),
            WorkScale::ZERO,
        );
        // Many events, regular structure: modest rule count.
        assert!(res.total_events() > 400, "{}", res.total_events());
        assert!(res.mean_rules() <= 16.0, "{}", res.mean_rules());
    }

    #[test]
    fn transpose_partner_is_symmetric_enough_to_not_deadlock() {
        // Structure check on 9 ranks (odd grid) — must terminate.
        let res = run_app(
            &Cg,
            9,
            WorkingSet::Small,
            MpiMode::record(),
            WorkScale::ZERO,
        );
        assert!(res.total_events() > 0);
    }
}
