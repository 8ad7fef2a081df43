//! NPB **SP** — scalar-pentadiagonal ADI solver.
//!
//! Like BT, SP alternates face exchanges with pipelined line solves along
//! the three spatial dimensions, but runs more, cheaper time steps (400
//! for class A/B/C; scaled to 40/100/250 here). The paper records 357 k
//! events over 64 ranks with a 9-rule grammar.

use pythia_minimpi::{Communicator, ReduceOp};
use pythia_runtime_mpi::PythiaComm;

use crate::npb::{coords_2d, grid_2d, rank_2d};
use crate::work::WorkScale;
use crate::{MpiApp, WorkingSet};

/// SP skeleton.
pub struct Sp;

const TAG_FACE: i32 = 50;

impl MpiApp for Sp {
    fn name(&self) -> &'static str {
        "SP"
    }

    fn preferred_ranks(&self) -> usize {
        16
    }

    fn run(&self, comm: &PythiaComm, ws: WorkingSet, work: &WorkScale) {
        let niter: usize = ws.pick(40, 100, 250);
        let cell_work: u64 = ws.pick(400, 1500, 5000);
        let dims = grid_2d(comm.size());
        let (row, col) = coords_2d(comm.rank(), dims);
        let buf = vec![0.0f64; 4];

        for _ in 0..3 {
            comm.bcast(&[1.0f64], 0);
        }
        comm.barrier();

        for it in 0..niter {
            // ADI: x-, y-, z-sweeps; each sweeps both grid axes of the
            // 2-D decomposition (the third dimension is rank-local).
            for (dr, dc) in [(0isize, 1isize), (1, 0), (0, 1)] {
                let fwd = rank_2d(row as isize + dr, col as isize + dc, dims);
                let bwd = rank_2d(row as isize - dr, col as isize - dc, dims);
                let reqs = vec![
                    comm.irecv::<f64>(Some(bwd), Some(TAG_FACE)),
                    comm.isend(&buf, fwd, TAG_FACE),
                ];
                comm.waitall(reqs);
                work.compute(cell_work);
                let reqs = vec![
                    comm.irecv::<f64>(Some(fwd), Some(TAG_FACE)),
                    comm.isend(&buf, bwd, TAG_FACE),
                ];
                comm.waitall(reqs);
            }
            if it % 20 == 0 {
                comm.allreduce(&[1.0f64; 5], ReduceOp::Sum);
            }
        }
        comm.reduce(&[1.0f64], ReduceOp::Sum, 0);
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
        check_app_structure(&Sp, 4, 0.85);
    }

    #[test]
    fn many_small_steps_compact_grammar() {
        let res = run_app(
            &Sp,
            4,
            WorkingSet::Large,
            MpiMode::record(),
            WorkScale::ZERO,
        );
        assert!(res.total_events() > 4000, "{}", res.total_events());
        assert!(res.mean_rules() <= 14.0, "{} rules", res.mean_rules());
    }
}
