//! NPB **MG** — multigrid V-cycle kernel.
//!
//! Each V-cycle descends through the grid hierarchy (restriction) and back
//! up (prolongation), exchanging halos with the axis neighbours at every
//! level, and evaluates the residual norm with an `MPI_Allreduce`. The
//! per-level pattern is what gives MG its medium-sized grammar in the
//! paper (14 rules, 610 k events over 64 ranks). Class A/B/C run 4/20/20
//! cycles; scaled here to 4/8/16 with 4/5/6 levels.

use pythia_minimpi::{Communicator, ReduceOp};
use pythia_runtime_mpi::PythiaComm;

use crate::npb::{coords_2d, grid_2d, rank_2d};
use crate::work::WorkScale;
use crate::{MpiApp, WorkingSet};

/// MG skeleton.
pub struct Mg;

const TAG_HALO: i32 = 40;

fn halo(comm: &PythiaComm, dims: (usize, usize), row: usize, col: usize, level: usize) {
    // Periodic halo exchange along both grid axes; the tag carries the
    // level so that messages of different levels never mismatch.
    let tag = TAG_HALO + level as i32;
    let buf = vec![0.0f64; 2];
    let mut reqs = Vec::new();
    for (dr, dc) in [(-1isize, 0isize), (1, 0), (0, -1), (0, 1)] {
        let peer = rank_2d(row as isize + dr, col as isize + dc, dims);
        reqs.push(comm.irecv::<f64>(Some(peer), Some(tag)));
        reqs.push(comm.isend(&buf, peer, tag));
    }
    comm.waitall(reqs);
}

impl MpiApp for Mg {
    fn name(&self) -> &'static str {
        "MG"
    }

    fn preferred_ranks(&self) -> usize {
        16
    }

    fn run(&self, comm: &PythiaComm, ws: WorkingSet, work: &WorkScale) {
        let cycles: usize = ws.pick(4, 8, 16);
        let levels: usize = ws.pick(4, 5, 6);
        let top_work: u64 = ws.pick(2000, 8000, 25_000);
        let dims = grid_2d(comm.size());
        let (row, col) = coords_2d(comm.rank(), dims);

        comm.bcast(&[levels as f64], 0);
        comm.barrier();

        for _ in 0..cycles {
            // Downward: smooth + restrict, finest to coarsest.
            for level in 0..levels {
                work.compute(top_work >> (2 * level));
                halo(comm, dims, row, col, level);
            }
            // Upward: prolongate + smooth, coarsest to finest.
            for level in (0..levels).rev() {
                work.compute(top_work >> (2 * level));
                halo(comm, dims, row, col, level);
            }
            // Residual norm.
            comm.allreduce(&[1.0f64], ReduceOp::Sum);
        }
        comm.allreduce(&[1.0f64], ReduceOp::Max);
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
        check_app_structure(&Mg, 4, 0.85);
    }

    #[test]
    fn per_level_pattern_folds() {
        let res = run_app(
            &Mg,
            4,
            WorkingSet::Medium,
            MpiMode::record(),
            WorkScale::ZERO,
        );
        // 9 events per halo × 2×levels per cycle + reduction.
        let per_cycle = 9 * 2 * 5 + 1;
        assert_eq!(res.total_events(), 4 * (2 + 8 * per_cycle as u64 + 2));
        assert!(res.mean_rules() <= 18.0, "{} rules", res.mean_rules());
    }
}
