//! NPB **BT** — block-tridiagonal ADI solver.
//!
//! The skeleton is shaped so that one MPI rank's recorded grammar matches
//! the paper's Fig. 7:
//!
//! ```text
//! R -> Bcast^6 B Barrier A^200 Allreduce Allreduce B Reduce Barrier
//! A -> B Isend Irecv [...] Wait^2
//! B -> Irecv Irecv [...] Waitall
//! ```
//!
//! i.e. a setup of six parameter broadcasts, a main loop of `niter` time
//! steps (class A/B/C run 200 time steps; scaled to 30/80/200 here), each
//! combining a face exchange with the pipelined ADI solve, then the
//! verification reductions.

use pythia_minimpi::{Communicator, ReduceOp, Request};
use pythia_runtime_mpi::PythiaComm;

use crate::npb::{coords_2d, grid_2d, rank_2d};
use crate::work::WorkScale;
use crate::{MpiApp, WorkingSet};

/// BT skeleton.
pub struct Bt;

const TAG_FACE: i32 = 10;
const TAG_SOLVE: i32 = 11;

/// Face exchange with the two x-neighbours:
/// `Irecv Irecv Isend Isend Waitall` (the paper's rule `B`).
fn face_exchange(comm: &PythiaComm, prev: usize, next: usize, cells: &[f64]) {
    let r1 = comm.irecv::<f64>(Some(prev), Some(TAG_FACE));
    let r2 = comm.irecv::<f64>(Some(next), Some(TAG_FACE));
    let s1 = comm.isend(cells, next, TAG_FACE);
    let s2 = comm.isend(cells, prev, TAG_FACE);
    comm.waitall(vec![r1, r2, s1, s2]);
}

impl MpiApp for Bt {
    fn name(&self) -> &'static str {
        "BT"
    }

    fn preferred_ranks(&self) -> usize {
        16
    }

    fn run(&self, comm: &PythiaComm, ws: WorkingSet, work: &WorkScale) {
        let niter: usize = ws.pick(30, 80, 200);
        let grid: u64 = ws.pick(24, 40, 64); // class A/B/C: 64/102/162
        let dims = grid_2d(comm.size());
        let (row, col) = coords_2d(comm.rank(), dims);
        let prev = rank_2d(row as isize, col as isize - 1, dims);
        let next = rank_2d(row as isize, col as isize + 1, dims);
        let cells_per_rank = grid * grid * grid / comm.size() as u64;
        let face = vec![0.5f64; 4];

        // Setup: the root broadcasts six problem parameters.
        for p in 0..6 {
            comm.bcast(&[p as f64], 0);
        }
        face_exchange(comm, prev, next, &face);
        comm.barrier();

        // Main time-step loop (rule A = B + pipelined solve).
        for _ in 0..niter {
            face_exchange(comm, prev, next, &face);
            work.compute(cells_per_rank);
            // Pipelined line solve along x: send ahead, receive behind.
            let s: Request<f64> = comm.isend(&face, next, TAG_SOLVE);
            let r: Request<f64> = comm.irecv(Some(prev), Some(TAG_SOLVE));
            comm.wait(s);
            comm.wait(r);
        }

        // Verification.
        comm.allreduce(&[1.0f64], ReduceOp::Sum);
        comm.allreduce(&[1.0f64], ReduceOp::Max);
        face_exchange(comm, prev, next, &face);
        comm.reduce(&[1.0f64], ReduceOp::Sum, 0);
        comm.barrier();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{check_app_structure, record_trace, run_app};
    use pythia_runtime_mpi::MpiMode;

    #[test]
    fn structure_and_prediction() {
        check_app_structure(&Bt, 4, 0.9);
    }

    #[test]
    fn grammar_is_compact_like_fig7() {
        let trace = record_trace(&Bt, 4, WorkingSet::Small, WorkScale::ZERO);
        // The paper reports 3 rules for BT; allow a little slack for the
        // skeleton's slightly different solve stage.
        assert!(
            trace.mean_rule_count() <= 8.0,
            "mean rules {}",
            trace.mean_rule_count()
        );
        // The root must contain a high-exponent loop use (the A^niter).
        let g = &trace.thread(0).unwrap().grammar;
        let root = g.rule(g.root());
        let max_rep = root.body.iter().map(|u| u.count).max().unwrap();
        assert!(
            max_rep >= 29,
            "no folded time-step loop: max exponent {max_rep}"
        );
    }

    #[test]
    fn event_count_scales_with_working_set() {
        let small = run_app(
            &Bt,
            4,
            WorkingSet::Small,
            MpiMode::record(),
            WorkScale::ZERO,
        );
        let large = run_app(
            &Bt,
            4,
            WorkingSet::Large,
            MpiMode::record(),
            WorkScale::ZERO,
        );
        assert!(large.total_events() > small.total_events() * 3);
    }
}
