//! **LULESH** — Sedov blast hydrodynamics proxy (MPI + OpenMP).
//!
//! Every Lagrange leap-frog time step runs a fixed sequence of OpenMP
//! parallel regions (force calculation, acceleration, velocity/position
//! updates, element quantities, …), exchanges nodal and element halos with
//! the 6 face neighbours, and reduces the next time-step constraint. This
//! regular, very chatty structure is why the paper records 28 M events
//! with only 12 grammar rules. Working sets mirror `-s 10/30/50` (time
//! steps scaled to 8/20/40).

use pythia_minimpi::{Communicator, ReduceOp};
use pythia_runtime_mpi::PythiaComm;

use crate::npb::{coords_2d, grid_2d, rank_2d};
use crate::work::WorkScale;
use crate::{MpiApp, WorkingSet};

/// LULESH skeleton (the MPI+OpenMP variant used in Table I; the
/// OpenMP-only variant of Figs. 10–14 lives in [`crate::lulesh_omp`]).
pub struct Lulesh;

const TAG_NODAL: i32 = 70;
const TAG_ELEM: i32 = 71;

/// The per-step OpenMP regions: `(region id, relative size exponent)`;
/// sizes model the real code's mix of O(elements) loops and small
/// boundary-condition loops.
const REGIONS: [(i64, u32); 10] = [
    (0, 3), // CalcForceForNodes          ~ s^3
    (1, 3), // CalcAccelerationForNodes
    (2, 1), // ApplyAccelerationBC        ~ s (small)
    (3, 3), // CalcVelocityForNodes
    (4, 3), // CalcPositionForNodes
    (5, 3), // CalcLagrangeElements
    (6, 2), // CalcQForElems              ~ s^2
    (7, 2), // ApplyMaterialProperties
    (8, 1), // UpdateVolumes (small)
    (9, 1), // CalcTimeConstraints (small)
];

fn halo(comm: &PythiaComm, dims: (usize, usize), row: usize, col: usize, tag: i32) {
    let buf = vec![0.0f64; 3];
    let mut reqs = Vec::new();
    for (dr, dc) in [(-1isize, 0isize), (1, 0), (0, -1), (0, 1)] {
        let peer = rank_2d(row as isize + dr, col as isize + dc, dims);
        reqs.push(comm.irecv::<f64>(Some(peer), Some(tag)));
        reqs.push(comm.isend(&buf, peer, tag));
    }
    comm.waitall(reqs);
}

impl MpiApp for Lulesh {
    fn name(&self) -> &'static str {
        "Lulesh"
    }

    fn hybrid(&self) -> bool {
        true
    }

    fn run(&self, comm: &PythiaComm, ws: WorkingSet, work: &WorkScale) {
        let steps: usize = ws.pick(8, 20, 40);
        let s: u64 = ws.pick(10, 30, 50);
        let dims = grid_2d(comm.size());
        let (row, col) = coords_2d(comm.rank(), dims);

        comm.bcast(&[s as f64], 0);
        comm.barrier();

        for _ in 0..steps {
            // Time increment: global minimum of the local constraints.
            comm.allreduce(&[1.0f64], ReduceOp::Min);
            // Lagrange nodal phase.
            for &(region, exp) in &REGIONS[..5] {
                comm.custom_event("omp_region_begin", Some(region));
                work.compute(s.pow(exp) / 8);
                comm.custom_event("omp_region_end", Some(region));
            }
            halo(comm, dims, row, col, TAG_NODAL);
            // Lagrange element phase.
            for &(region, exp) in &REGIONS[5..] {
                comm.custom_event("omp_region_begin", Some(region));
                work.compute(s.pow(exp) / 8);
                comm.custom_event("omp_region_end", Some(region));
            }
            halo(comm, dims, row, col, TAG_ELEM);
            // Courant/hydro constraints for the next step.
            comm.allreduce(&[1.0f64, 1.0], ReduceOp::Min);
        }
        comm.allreduce(&[1.0f64], ReduceOp::Sum); // final energy check
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
        check_app_structure(&Lulesh, 4, 0.9);
    }

    #[test]
    fn chatty_regular_structure() {
        let res = run_app(
            &Lulesh,
            4,
            WorkingSet::Medium,
            MpiMode::record(),
            WorkScale::ZERO,
        );
        // 2 + steps*(1 + 10 + 9 + 10 + 9 + 1) + 2 events per rank.
        assert_eq!(res.total_events(), 4 * (2 + 20 * 40 + 2));
        // Paper: 12 rules.
        assert!(res.mean_rules() <= 16.0, "{} rules", res.mean_rules());
    }

    #[test]
    fn omp_regions_present_in_registry() {
        let trace = crate::harness::record_trace(&Lulesh, 4, WorkingSet::Small, WorkScale::ZERO);
        assert!(trace
            .registry()
            .lookup("omp_region_begin", Some(0))
            .is_some());
        assert!(trace.registry().lookup("omp_region_end", Some(9)).is_some());
    }
}
