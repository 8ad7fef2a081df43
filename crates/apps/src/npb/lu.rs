//! NPB **LU** — SSOR solver with pipelined wavefront communication.
//!
//! The lower/upper triangular sweeps propagate a wavefront across the 2-D
//! processor grid: for every one of the `nz` grid planes, a rank receives
//! the boundary from its north and west neighbours, computes, and sends to
//! south and east (reversed for the upper sweep). This fine-grained,
//! per-plane point-to-point traffic makes LU the chattiest NPB kernel in
//! the paper (18 M events over 64 ranks), yet with a very regular grammar
//! (11 rules). Class A/B/C run 250/250/250 iterations on 64³/102³/162³
//! grids; scaled here to 8/20/50 iterations with 8/12/16 planes.

use pythia_minimpi::{Communicator, ReduceOp};
use pythia_runtime_mpi::PythiaComm;

use crate::npb::{coords_2d, grid_2d};
use crate::work::WorkScale;
use crate::{MpiApp, WorkingSet};

/// LU skeleton.
pub struct Lu;

const TAG_SWEEP: i32 = 30;
const TAG_HALO: i32 = 31;

impl MpiApp for Lu {
    fn name(&self) -> &'static str {
        "LU"
    }

    fn preferred_ranks(&self) -> usize {
        16
    }

    fn run(&self, comm: &PythiaComm, ws: WorkingSet, work: &WorkScale) {
        let iters: usize = ws.pick(8, 20, 50);
        let nz: usize = ws.pick(8, 12, 16);
        let plane_work: u64 = ws.pick(300, 1000, 4000);
        let dims = grid_2d(comm.size());
        let (row, col) = coords_2d(comm.rank(), dims);
        let boundary = vec![0.0f64; 4];

        let north = (row > 0).then(|| (row - 1) * dims.1 + col);
        let south = (row + 1 < dims.0).then(|| (row + 1) * dims.1 + col);
        let west = (col > 0).then(|| row * dims.1 + col - 1);
        let east = (col + 1 < dims.1).then(|| row * dims.1 + col + 1);

        comm.bcast(&[nz as f64], 0);
        comm.barrier();

        for it in 0..iters {
            // Lower-triangular sweep: wavefront from the north-west.
            for _ in 0..nz {
                if let Some(n) = north {
                    comm.recv::<f64>(Some(n), Some(TAG_SWEEP));
                }
                if let Some(w) = west {
                    comm.recv::<f64>(Some(w), Some(TAG_SWEEP));
                }
                work.compute(plane_work);
                if let Some(s) = south {
                    comm.send(&boundary, s, TAG_SWEEP);
                }
                if let Some(e) = east {
                    comm.send(&boundary, e, TAG_SWEEP);
                }
            }
            // Upper-triangular sweep: wavefront from the south-east.
            for _ in 0..nz {
                if let Some(s) = south {
                    comm.recv::<f64>(Some(s), Some(TAG_SWEEP));
                }
                if let Some(e) = east {
                    comm.recv::<f64>(Some(e), Some(TAG_SWEEP));
                }
                work.compute(plane_work);
                if let Some(n) = north {
                    comm.send(&boundary, n, TAG_SWEEP);
                }
                if let Some(w) = west {
                    comm.send(&boundary, w, TAG_SWEEP);
                }
            }
            // RHS halo exchange (all four neighbours, nonblocking).
            let mut reqs = Vec::new();
            for peer in [north, south, west, east].into_iter().flatten() {
                reqs.push(comm.irecv::<f64>(Some(peer), Some(TAG_HALO)));
                reqs.push(comm.isend(&boundary, peer, TAG_HALO));
            }
            comm.waitall(reqs);
            // Residual norm every 5 iterations.
            if it % 5 == 0 {
                comm.allreduce(&[1.0f64; 5], ReduceOp::Sum);
            }
        }
        comm.allreduce(&[1.0f64; 5], ReduceOp::Sum);
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
        check_app_structure(&Lu, 4, 0.85);
    }

    #[test]
    fn chattiest_kernel_regular_grammar() {
        let res = run_app(
            &Lu,
            4,
            WorkingSet::Large,
            MpiMode::record(),
            WorkScale::ZERO,
        );
        // Highest per-rank event count of the NPB set.
        assert!(res.total_events() > 10_000, "{} events", res.total_events());
        // ... but a compact grammar (paper: 11 rules).
        assert!(res.mean_rules() <= 16.0, "{} rules", res.mean_rules());
    }

    #[test]
    fn wavefront_terminates_on_odd_grids() {
        let res = run_app(
            &Lu,
            6,
            WorkingSet::Small,
            MpiMode::record(),
            WorkScale::ZERO,
        );
        assert!(res.total_events() > 0);
    }
}
