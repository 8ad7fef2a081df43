//! **Kripke** — deterministic (Sn) particle-transport proxy (MPI + OpenMP).
//!
//! The core is a wavefront *sweep*: for each of the 8 direction octants
//! and each energy group set, a rank waits for its upstream neighbours'
//! boundary fluxes, runs the OpenMP sweep kernel over its zones, and
//! forwards fluxes downstream. Working sets mirror `--groups 128/512/1024`
//! (group sets 2/4/8). The paper records ~10 k events with 46 rules — a
//! mid-sized grammar from the octant-dependent neighbour pattern.

use pythia_minimpi::{Communicator, ReduceOp};
use pythia_runtime_mpi::PythiaComm;

use crate::npb::{coords_2d, grid_2d};
use crate::work::WorkScale;
use crate::{MpiApp, WorkingSet};

/// Kripke skeleton.
pub struct Kripke;

const TAG_FLUX: i32 = 80;

impl MpiApp for Kripke {
    fn name(&self) -> &'static str {
        "Kripke"
    }

    fn hybrid(&self) -> bool {
        true
    }

    fn run(&self, comm: &PythiaComm, ws: WorkingSet, work: &WorkScale) {
        let group_sets: usize = ws.pick(2, 4, 8);
        let iterations: usize = ws.pick(2, 3, 5);
        let zone_work: u64 = ws.pick(4000, 16_000, 40_000);
        let dims = grid_2d(comm.size());
        let (row, col) = coords_2d(comm.rank(), dims);
        let flux = vec![0.0f64; 4];

        comm.bcast(&[group_sets as f64], 0);
        comm.barrier();

        for _ in 0..iterations {
            // 8 octants = 4 distinct sweep directions on a 2-D grid
            // (each appearing twice for the +/- z pairing).
            for octant in 0..8usize {
                let dr: isize = if octant & 1 == 0 { 1 } else { -1 };
                let dc: isize = if octant & 2 == 0 { 1 } else { -1 };
                // Upstream neighbours exist when we are not on the
                // inflow boundary of this direction.
                let up_r = row as isize - dr;
                let up_c = col as isize - dc;
                let down_r = row as isize + dr;
                let down_c = col as isize + dc;
                for _gs in 0..group_sets {
                    if (0..dims.0 as isize).contains(&up_r) {
                        comm.recv::<f64>(Some(up_r as usize * dims.1 + col), Some(TAG_FLUX));
                    }
                    if (0..dims.1 as isize).contains(&up_c) {
                        comm.recv::<f64>(Some(row * dims.1 + up_c as usize), Some(TAG_FLUX));
                    }
                    comm.custom_event("omp_region_begin", Some(octant as i64));
                    work.compute(zone_work / group_sets as u64);
                    comm.custom_event("omp_region_end", Some(octant as i64));
                    if (0..dims.0 as isize).contains(&down_r) {
                        comm.send(&flux, down_r as usize * dims.1 + col, TAG_FLUX);
                    }
                    if (0..dims.1 as isize).contains(&down_c) {
                        comm.send(&flux, row * dims.1 + down_c as usize, TAG_FLUX);
                    }
                }
            }
            // Particle-balance / convergence check.
            comm.allreduce(&[1.0f64, 1.0], ReduceOp::Sum);
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
        check_app_structure(&Kripke, 4, 0.85);
    }

    #[test]
    fn octant_pattern_mid_sized_grammar() {
        let res = run_app(
            &Kripke,
            4,
            WorkingSet::Large,
            MpiMode::record(),
            WorkScale::ZERO,
        );
        assert!(res.total_events() > 500, "{}", res.total_events());
        // Paper: 46 rules — noticeably more than the regular NPB kernels.
        assert!(res.mean_rules() >= 4.0, "{} rules", res.mean_rules());
        assert!(res.mean_rules() <= 80.0, "{} rules", res.mean_rules());
    }

    #[test]
    fn sweep_terminates_on_rectangular_grid() {
        let res = run_app(
            &Kripke,
            6,
            WorkingSet::Small,
            MpiMode::record(),
            WorkScale::ZERO,
        );
        assert!(res.total_events() > 0);
    }
}
